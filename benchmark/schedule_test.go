package main

import (
	"math"
	"testing"
	"time"
)

func TestScheduleIsDeterministic(t *testing.T) {
	for _, w := range workloads {
		a := makeSchedule(w, 7, 2*time.Second)
		b := makeSchedule(w, 7, 2*time.Second)
		if len(a) != len(b) || scheduleHash(a) != scheduleHash(b) {
			t.Errorf("%s: the same seed gave two schedules (%s, %s)", w.Name, scheduleHash(a), scheduleHash(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: arrival %d differs: %+v vs %+v", w.Name, i, a[i], b[i])
			}
		}
		if c := makeSchedule(w, 8, 2*time.Second); scheduleHash(c) == scheduleHash(a) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule %s", w.Name, scheduleHash(a))
		}
	}
	// The workload is part of the seed: two workloads never replay one
	// another's arrival times.
	if a, b := makeSchedule(workloads[0], 1, time.Second), makeSchedule(workloads[3], 1, time.Second); a[0].Due == b[0].Due {
		t.Errorf("churn and resume share their first arrival time %v", a[0].Due)
	}
}

func TestScheduleShape(t *testing.T) {
	const horizon = 4 * time.Second
	for _, w := range workloads {
		sched := makeSchedule(w, 3, horizon)
		want := w.Rate * horizon.Seconds()
		if got := float64(len(sched)); math.Abs(got-want) > 5*math.Sqrt(want) {
			t.Errorf("%s: %d arrivals in %v, want about %.0f", w.Name, len(sched), horizon, want)
		}
		first := 0
		var prev time.Duration
		for i, a := range sched {
			if a.Due < prev || a.Due >= horizon {
				t.Fatalf("%s: arrival %d due %v after %v (horizon %v)", w.Name, i, a.Due, prev, horizon)
			}
			prev = a.Due
			if a.Video < 1 || int(a.Video) > w.Videos {
				t.Fatalf("%s: arrival %d asks for video %d of %d", w.Name, i, a.Video, w.Videos)
			}
			lo := 1
			if w.ResumeSpan > 0 {
				lo = w.Segments - w.ResumeSpan + 1
			}
			if w.ResumeSpan == 0 && a.From != 1 || int(a.From) < lo || int(a.From) > w.Segments {
				t.Fatalf("%s: arrival %d resumes at %d, outside %d..%d", w.Name, i, a.From, lo, w.Segments)
			}
			if a.Video == 1 {
				first++
			}
		}
		// Zipf with skew 1: video 1 draws 1/H(V) of the requests.
		h := 0.0
		for k := 1; k <= w.Videos; k++ {
			h += 1 / float64(k)
		}
		share, wantShare := float64(first)/float64(len(sched)), 1/h
		if math.Abs(share-wantShare) > 5*math.Sqrt(wantShare/float64(len(sched))) {
			t.Errorf("%s: video 1 drew %.3f of the requests, want about %.3f", w.Name, share, wantShare)
		}
		lo, hi := inWindow(sched, time.Second, 3*time.Second)
		if lo == 0 || hi == len(sched) || sched[lo].Due < time.Second || sched[lo-1].Due >= time.Second || sched[hi].Due < 3*time.Second {
			t.Errorf("%s: inWindow(1s, 3s) = [%d, %d) does not cut at the due times", w.Name, lo, hi)
		}
	}
}

func TestStatistics(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(ten); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q3 := quartiles([]float64{16, 1, 8, 2, 4}); q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v, %v, want 1.5, 12", q1, q3)
	}
	if m := median(ten); m != 5.5 {
		t.Errorf("median(1..10) = %v", m)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median(3,1,2) = %v", m)
	}
	if p := percentile(append([]float64(nil), ten...), 0.99); p != 10 {
		t.Errorf("p99(1..10) = %v", p)
	}
	if p := percentile(append([]float64(nil), ten...), 0.5); p != 5 {
		t.Errorf("p50(1..10) = %v, want the nearest rank 5", p)
	}
	if percentile(nil, 0.5) != 0 || median(nil) != 0 || div(1, 0) != 0 {
		t.Error("empty inputs must read 0")
	}
}
