package main

import (
	"strings"
	"testing"
	"time"

	"vodcast/internal/vodclient"
	"vodcast/internal/vodserver"
)

var tiny = workload{Name: "tiny", Videos: 2, Segments: 6, SegmentBytes: 48, SlotMillis: 10, Rate: 1}

func startTiny(t *testing.T, drop func(video uint32, segment, slot int) bool) *vodserver.Server {
	t.Helper()
	catalogue := make([]vodserver.VideoConfig, tiny.Videos)
	for i := range catalogue {
		catalogue[i] = vodserver.VideoConfig{ID: uint32(i + 1), Segments: tiny.Segments, SegmentBytes: tiny.SegmentBytes}
	}
	srv, err := vodserver.Start(vodserver.Config{
		Addr: "127.0.0.1:0", Videos: catalogue, SlotDuration: tiny.slot(), DropInstance: drop,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// The lean driver and vodclient's strict mode must see the same stream: the
// same segments, the same verified bytes, no missed deadline.
func TestDriverMatchesStrictClient(t *testing.T) {
	srv := startTiny(t, nil)
	for _, a := range []arrival{{Video: 1, From: 1}, {Video: 2, From: 1}, {Video: 1, From: 4}} {
		// One session at a time, so neither client is handed frames that
		// were scheduled for the other.
		want, err := vodclient.FetchWith(srv.Addr(), vodclient.FetchOptions{
			VideoID: a.Video, From: a.From, Timeout: 10 * time.Second, StrictDeadlines: true,
		})
		if err != nil {
			t.Fatalf("vodclient %+v: %v", a, err)
		}
		d := newDriver(tiny, srv.Addr(), []arrival{a}, buildPayloadTable(tiny))
		d.run(time.Now())
		got := d.results[0]
		if got.Err != nil {
			t.Fatalf("driver %+v: %v", a, got.Err)
		}
		needed := tiny.Segments - int(a.From) + 1
		if got.Segments != needed || want.MissingSegments != 0 || want.SharedFrames != 0 {
			t.Errorf("%+v: driver received %d segments, vodclient is missing %d and shared %d, want %d needed",
				a, got.Segments, want.MissingSegments, want.SharedFrames, needed)
		}
		if got.Bytes != want.PayloadBytes || got.Bytes != int64(needed*tiny.SegmentBytes) {
			t.Errorf("%+v: driver verified %d bytes, vodclient %d, want %d", a, got.Bytes, want.PayloadBytes, needed*tiny.SegmentBytes)
		}
		if want.DeadlineMisses != 0 {
			t.Errorf("%+v: vodclient counted %d misses", a, want.DeadlineMisses)
		}
		if got.AdmitRTT <= 0 || got.FirstByte <= got.AdmitRTT || got.Dial <= 0 || got.Dial > got.AdmitRTT {
			t.Errorf("%+v: boundaries out of order: dial %v admit %v first byte %v", a, got.Dial, got.AdmitRTT, got.FirstByte)
		}
		if len(got.SlotGapsUs) == 0 {
			t.Errorf("%+v: no slot gaps recorded", a)
		}
	}
	// Every session above reported, and none reported a miss.
	time.Sleep(5 * tiny.slot()) // the server reads a report after the client has sent it
	if snap := srv.QoE(); snap.Reports != 6 || snap.MissRate.Count != 6 || snap.MissRate.Max != 0 {
		t.Errorf("server QoE = %+v, want 6 reports and no miss", snap)
	}
	if saturated, err := newDriver(tiny, "", nil, nil).saturatedBandwidth(); err == nil {
		t.Errorf("a driver that admitted nothing reports bandwidth %v", saturated)
	}
}

// The checks are real: a server that withholds one scheduled instance makes
// the driver fail the session, as it makes vodclient's strict mode fail.
func TestDriverFailsOnDroppedInstance(t *testing.T) {
	srv := startTiny(t, func(video uint32, segment, slot int) bool { return video == 1 && segment == 2 })
	sched := []arrival{{Video: 1, From: 1}, {Video: 2, From: 1}}
	d := newDriver(tiny, srv.Addr(), sched, buildPayloadTable(tiny))
	d.run(time.Now())
	if err := d.results[0].Err; err == nil || !strings.Contains(err.Error(), "missed its deadline") {
		t.Errorf("video 1 lost segment 2 yet the session ended with %v", err)
	}
	if err := d.results[1].Err; err != nil {
		t.Errorf("video 2 was untouched yet the session failed: %v", err)
	}
	_, err := vodclient.FetchWith(srv.Addr(), vodclient.FetchOptions{VideoID: 1, Timeout: 10 * time.Second, StrictDeadlines: true})
	if err == nil {
		t.Error("vodclient strict mode accepted the same stream")
	}
}

// A payload that differs by one byte fails the session.
func TestDriverFailsOnCorruptPayload(t *testing.T) {
	srv := startTiny(t, nil)
	table := buildPayloadTable(tiny)
	table[0][3][0] ^= 1
	d := newDriver(tiny, srv.Addr(), []arrival{{Video: 1, From: 1}}, table)
	d.run(time.Now())
	if err := d.results[0].Err; err == nil || !strings.Contains(err.Error(), "corrupt payload for segment 4") {
		t.Errorf("a wrong byte in segment 4 ended the session with %v", err)
	}
}
