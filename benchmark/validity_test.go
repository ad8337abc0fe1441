package main

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	healthy := health{Pinned: true, DriverCPUUtil: 0.5, GenLateP99Ms: 1.2, SlotMillis: 5}
	cases := []struct {
		name    string
		mutate  func(*health)
		reasons []string
	}{
		{"healthy", func(*health) {}, nil},
		{"at the limits", func(h *health) { h.DriverCPUUtil, h.GenLateP99Ms = 0.7, 5 }, nil},
		{"unpinned", func(h *health) { h.Pinned = false }, []string{"pinned=false"}},
		{"driver saturated", func(h *health) { h.DriverCPUUtil = 0.71 }, []string{"driver.cpu_util"}},
		{"generator late", func(h *health) { h.GenLateP99Ms = 5.1 }, []string{"driver.gen_late_p99_ms"}},
		{"one slot is per workload", func(h *health) { h.GenLateP99Ms, h.SlotMillis = 15, 20 }, nil},
		{"everything", func(h *health) { *h = health{DriverCPUUtil: 0.9, GenLateP99Ms: 40, SlotMillis: 10} },
			[]string{"pinned=false", "driver.cpu_util", "driver.gen_late_p99_ms"}},
	}
	for _, c := range cases {
		h := healthy
		c.mutate(&h)
		valid, reasons := h.verdict()
		if valid != (len(c.reasons) == 0) || len(reasons) != len(c.reasons) {
			t.Errorf("%s: verdict = %v %q, want reasons %q", c.name, valid, reasons, c.reasons)
			continue
		}
		for i, want := range c.reasons {
			if !strings.Contains(reasons[i], want) {
				t.Errorf("%s: reason %d = %q, want it to name %s", c.name, i, reasons[i], want)
			}
		}
	}
}

func TestPlanPlacement(t *testing.T) {
	cases := []struct {
		allowed []int
		err     error
		pinned  bool
		server  []int
		driver  []int
		procs   int
	}{
		{allowed: []int{0, 1}, pinned: true, server: []int{0}, driver: []int{1}, procs: 1},
		{allowed: []int{0, 1, 2, 3}, pinned: true, server: []int{0, 1, 2}, driver: []int{3}, procs: 3},
		{allowed: []int{2, 3, 4, 5, 6, 7, 8, 9}, pinned: true, server: []int{2, 3, 4, 5}, driver: []int{9}, procs: 4},
		{allowed: []int{3}, procs: 1},
		{err: errors.New("no affinity here"), procs: 1},
	}
	for _, c := range cases {
		pl := planPlacement(c.allowed, c.err)
		if pl.Pinned != c.pinned || !slices.Equal(pl.ServerCPUs, c.server) || !slices.Equal(pl.DriverCPUs, c.driver) || pl.ServerProcs != c.procs {
			t.Errorf("planPlacement(%v, %v) = %+v", c.allowed, c.err, pl)
		}
		if !pl.Pinned && pl.Note == "" {
			t.Errorf("planPlacement(%v, %v) is unpinned without saying why", c.allowed, c.err)
		}
	}
}

func TestParseCPUList(t *testing.T) {
	for list, want := range map[string][]int{
		"0": {0}, "0-1": {0, 1}, "0-1,3": {0, 1, 3}, "2,4-6": {2, 4, 5, 6}, "": nil, "x": nil, "1-y": nil,
	} {
		if got := parseCPUList(list); !slices.Equal(got, want) {
			t.Errorf("parseCPUList(%q) = %v, want %v", list, got, want)
		}
	}
}
