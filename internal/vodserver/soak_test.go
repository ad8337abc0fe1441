package vodserver

import (
	"sync"
	"testing"
	"time"

	"vodcast/internal/sim"
	"vodcast/internal/vodclient"
)

// TestSoakManyClients pushes the networked system harder: three videos, 30
// customers arriving in random waves (some resuming mid-video), every
// session verified end to end, and the server shutting down cleanly
// afterwards. Skipped with -short.
func TestSoakManyClients(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	s, err := Start(Config{
		Addr: "127.0.0.1:0",
		Videos: []VideoConfig{
			{ID: 1, Segments: 16, SegmentBytes: 1024},
			{ID: 2, Segments: 12, SegmentBytes: 2048},
			{ID: 3, Segments: 20, SegmentBytes: 512},
		},
		SlotDuration: 8 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeNoFrameLeak(t, s)

	const customers = 30
	rng := sim.NewRNG(99)
	type job struct {
		video uint32
		from  uint32
		delay time.Duration
	}
	jobs := make([]job, customers)
	segments := map[uint32]int{1: 16, 2: 12, 3: 20}
	for i := range jobs {
		v := uint32(1 + rng.Intn(3))
		from := uint32(1)
		if rng.Float64() < 0.3 {
			from = uint32(1 + rng.Intn(segments[v]))
		}
		jobs[i] = job{
			video: v,
			from:  from,
			delay: time.Duration(rng.Intn(200)) * time.Millisecond,
		}
	}

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	for _, j := range jobs {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			time.Sleep(j.delay)
			if _, err := vodclient.FetchWith(s.Addr(), vodclient.FetchOptions{VideoID: j.video, From: j.from, Timeout: 30 * time.Second, StrictDeadlines: true}); err != nil {
				mu.Lock()
				errs = append(errs, err)
				mu.Unlock()
			}
		}(j)
	}
	wg.Wait()
	if len(errs) > 0 {
		t.Fatalf("%d/%d sessions failed; first: %v", len(errs), customers, errs[0])
	}
	st := s.Stats()
	if st.Requests != customers {
		t.Fatalf("requests = %d, want %d", st.Requests, customers)
	}
	// Sharing across the waves must beat per-customer unicast.
	unicast := int64(0)
	for _, j := range jobs {
		unicast += int64(segments[j.video]) - int64(j.from) + 1
	}
	if st.Instances >= unicast {
		t.Fatalf("instances = %d, unicast would be %d: no sharing under load", st.Instances, unicast)
	}
	if st.Dropped != 0 {
		t.Fatalf("%d subscribers dropped during the soak", st.Dropped)
	}
}
