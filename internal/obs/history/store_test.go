package history

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"vodcast/internal/obs"
)

// manualClock is a hand-advanced clock for deterministic timestamps.
type manualClock struct{ now time.Time }

func newManualClock() *manualClock {
	return &manualClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *manualClock) Now() time.Time          { return c.now }
func (c *manualClock) Advance(d time.Duration) { c.now = c.now.Add(d) }

// newTestStore wires a store to a live registry on a manual clock.
func newTestStore(t *testing.T, reg *obs.Registry, cfg Config) (*Store, *manualClock) {
	t.Helper()
	clk := newManualClock()
	cfg.Samples = reg.Samples
	cfg.Clock = clk.Now
	return New(cfg), clk
}

func TestStoreScrapeAndQuery(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.GaugeWith("vod_active_subscribers", "", nil)
	c := reg.Counter("vod_requests_total", "")
	s, clk := newTestStore(t, reg, Config{Interval: time.Second})

	start := clk.Now()
	for i := 0; i < 10; i++ {
		g.Set(float64(i))
		c.Add(2)
		s.Scrape()
		clk.Advance(time.Second)
	}

	pts := s.Query("vod_active_subscribers", start, clk.Now(), 0)
	if len(pts) != 10 {
		t.Fatalf("raw query returned %d points, want 10: %+v", len(pts), pts)
	}
	if pts[0].Value != 0 || pts[9].Value != 9 {
		t.Fatalf("raw values wrong: first=%+v last=%+v", pts[0], pts[9])
	}
	if pts[1].Unix-pts[0].Unix != 1 {
		t.Fatalf("raw spacing = %v, want 1s", pts[1].Unix-pts[0].Unix)
	}

	// Counters retain their running total; rates derive from first/last.
	cp := s.Query("vod_requests_total", start, clk.Now(), 0)
	if cp[0].Value != 2 || cp[len(cp)-1].Value != 20 {
		t.Fatalf("counter history wrong: %+v", cp)
	}

	// A sub-range trims to the requested window.
	sub := s.Query("vod_active_subscribers", start.Add(3*time.Second), start.Add(6*time.Second), 0)
	if len(sub) != 4 || sub[0].Value != 3 || sub[3].Value != 6 {
		t.Fatalf("sub-range query wrong: %+v", sub)
	}

	if s.Query("no_such_series", start, clk.Now(), 0) != nil {
		t.Fatal("unknown series returned points")
	}
}

func TestStoreSeriesIdentityAndListing(t *testing.T) {
	reg := obs.NewRegistry()
	reg.GaugeWith("vod_channel_load", "", obs.Labels{"video": "2"}).Set(1)
	reg.GaugeWith("vod_channel_load", "", obs.Labels{"video": "1"}).Set(2)
	reg.Window("vod_startup_slots", "", 0).Observe(0.5)
	s, _ := newTestStore(t, reg, Config{})
	s.Scrape()

	want := []string{
		`vod_channel_load{video="1"}`,
		`vod_channel_load{video="2"}`,
		"vod_startup_slots_count",
		"vod_startup_slots_sum",
		`vod_startup_slots{quantile="0.5"}`,
		`vod_startup_slots{quantile="0.95"}`,
		`vod_startup_slots{quantile="0.99"}`,
	}
	got := s.Series()
	if len(got) != len(want) {
		t.Fatalf("Series() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Series()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestStoreStepBuckets checks max-in-bucket semantics of a step coarser than
// the scrape interval over the raw points: a one-second spike inside a 10s
// bucket survives.
func TestStoreStepBuckets(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.GaugeWith("vod_fanout_ring_depth", "", nil)
	s, clk := newTestStore(t, reg, Config{Interval: time.Second})

	start := clk.Now()
	for i := 0; i < 30; i++ {
		v := 1.0
		if i == 13 { // one-tick spike mid-bucket
			v = 42
		}
		g.Set(v)
		s.Scrape()
		clk.Advance(time.Second)
	}

	// step=10s buckets the raw points; the spike's bucket must read 42.
	pts := s.Query("vod_fanout_ring_depth", start, clk.Now(), 10*time.Second)
	if len(pts) != 3 {
		t.Fatalf("10s step query returned %d points, want 3: %+v", len(pts), pts)
	}
	if pts[0].Value != 1 || pts[1].Value != 42 || pts[2].Value != 1 {
		t.Fatalf("max-in-bucket lost the spike: %+v", pts)
	}
	if pts[1].Unix-pts[0].Unix != 10 {
		t.Fatalf("10s step spacing = %v, want 10s", pts[1].Unix-pts[0].Unix)
	}
}

// TestStoreRawEviction rolls more scrapes than the ring holds and checks old
// points fall off.
func TestStoreRawEviction(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.GaugeWith("g", "", nil)
	s, clk := newTestStore(t, reg, Config{Interval: time.Second})

	start := clk.Now()
	total := ringPoints + 60
	for i := 0; i < total; i++ {
		g.Set(float64(i))
		s.Scrape()
		clk.Advance(time.Second)
	}

	// Querying within retention returns exactly the ring's points, oldest
	// first, with the pre-eviction values gone.
	raw := s.Query("g", start.Add(time.Duration(total-ringPoints)*time.Second), clk.Now(), 0)
	if len(raw) != ringPoints {
		t.Fatalf("ring holds %d points, want %d", len(raw), ringPoints)
	}
	if raw[0].Value != float64(total-ringPoints) {
		t.Fatalf("oldest point = %v, want %v (eviction order broken)", raw[0].Value, total-ringPoints)
	}

	// A query starting before retention returns what the ring holds: the
	// same points, nothing reaching further back.
	old := s.Query("g", start, clk.Now(), time.Second)
	if !slices.Equal(old, raw) {
		t.Fatalf("pre-retention query returned %d points, want the %d ring points", len(old), ringPoints)
	}
}

func TestStoreByteCapRefusesNewSeries(t *testing.T) {
	reg := obs.NewRegistry()
	// One gauge more than the cap admits. Equal-sized families go in name
	// order, so admission is deterministic: the last name is refused.
	capacity := maxBytes / seriesCost
	names := make([]string, capacity+1)
	for i := range names {
		names[i] = fmt.Sprintf("g%04d", i)
		reg.GaugeWith(names[i], "", nil).Set(float64(i))
	}
	refused, first := names[capacity], names[0]
	s, clk := newTestStore(t, reg, Config{})
	start := clk.Now()
	s.Scrape()
	clk.Advance(time.Second)
	s.Scrape()

	st := s.Stats()
	if st.Series != capacity {
		t.Fatalf("Series = %d, want %d (cap must refuse the last)", st.Series, capacity)
	}
	if st.DroppedSeries != 2 {
		t.Fatalf("DroppedSeries = %d, want 2 (one refusal per scrape)", st.DroppedSeries)
	}
	if st.Bytes > st.MaxBytes {
		t.Fatalf("resident bytes %d exceed cap %d", st.Bytes, st.MaxBytes)
	}
	if st.Scrapes != 2 {
		t.Fatalf("Scrapes = %d, want 2", st.Scrapes)
	}
	// The listing carries exactly the admitted identities — a refused series
	// never appears, so /queryz discovery cannot advertise data that was
	// never retained.
	if got := s.Series(); !slices.Equal(got, names[:capacity]) {
		t.Fatalf("Series() lists %d names, want the first %d of %d", len(got), capacity, len(names))
	}
	// Querying the refused series answers like any unknown series: nil, not
	// a partial window.
	if pts := s.Query(refused, start, clk.Now(), 0); pts != nil {
		t.Fatalf("refused series returned points: %+v", pts)
	}
	// Established series keep updating despite the cap: both scrapes landed.
	if pts := s.Query(first, start, clk.Now(), 0); len(pts) != 2 {
		t.Fatalf("admitted series has %d points, want 2: %+v", len(pts), pts)
	}
}

// TestStoreLargeFamilyDoesNotStarveTotals: a family with one child per
// catalogue video sorts before the server-wide totals and alone overflows
// the default cap; the unlabelled counter behind it must still be retained.
func TestStoreLargeFamilyDoesNotStarveTotals(t *testing.T) {
	reg := obs.NewRegistry()
	for v := 0; v < 2048; v++ {
		reg.GaugeWith("a_channel_load", "", obs.Labels{"video": fmt.Sprint(v)}).Set(1)
	}
	reg.Counter("z_requests_total", "").Add(7)
	s, clk := newTestStore(t, reg, Config{})
	start := clk.Now()
	s.Scrape()
	clk.Advance(time.Second)
	s.Scrape()

	st := s.Stats()
	if st.DroppedSeries == 0 || st.Bytes > st.MaxBytes {
		t.Fatalf("stats %+v: 2049 series must overflow the cap without exceeding it", st)
	}
	pts := s.Query("z_requests_total", start, clk.Now(), 0)
	if len(pts) != 2 || pts[1].Value != 7 {
		t.Fatalf("z_requests_total points %+v, want both scrapes at 7", pts)
	}
	if pts := s.Query(`a_channel_load{video="0"}`, start, clk.Now(), 0); len(pts) != 2 {
		t.Fatalf("labelled series lost to the reordering: %+v", pts)
	}
}

// TestStoreSmallFamilyBeforeLargeFamily: a labelled family with one child per
// catalogue video sorts before a three-child family and alone overflows the
// cap; the small family must still be retained whole, and the large one gets
// exactly what is left: 1 394 series retained in all, 657 refused.
func TestStoreSmallFamilyBeforeLargeFamily(t *testing.T) {
	reg := obs.NewRegistry()
	for v := 0; v < 2048; v++ {
		reg.CounterWith("a_miss_total", "", obs.Labels{"video": fmt.Sprint(v)})
	}
	for _, reason := range []string{"healthy", "stalled", "path_limited"} {
		reg.CounterWith("z_dropped_total", "", obs.Labels{"reason": reason}).Inc()
	}
	s, _ := newTestStore(t, reg, Config{})
	s.Scrape()

	if st := s.Stats(); st.Series != 1394 || st.DroppedSeries != 657 {
		t.Fatalf("stats %+v, want 1394 series retained and 657 refused", st)
	}
	have := make(map[string]bool)
	for _, k := range s.Series() {
		have[k] = true
	}
	for _, reason := range []string{"healthy", "stalled", "path_limited"} {
		if key := `z_dropped_total{reason="` + reason + `"}`; !have[key] {
			t.Fatalf("%s refused behind the 2048-child family", key)
		}
	}
}

func TestStoreDefaultsAndValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New without Samples did not panic")
		}
	}()
	s := New(Config{Samples: func() []obs.Sample { return nil }})
	if s.Stats().IntervalMS != 1000 {
		t.Fatalf("default interval = %d ms, want 1s", s.Stats().IntervalMS)
	}
	if s.Stats().MaxBytes != 8<<20 {
		t.Fatalf("default MaxBytes = %d, want 8MiB", s.Stats().MaxBytes)
	}
	New(Config{}) // must panic
}
