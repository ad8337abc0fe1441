// Network: the DHB protocol running over real sockets — an in-process
// vodserver broadcasts deterministic segment payloads while several
// set-top-box clients verify every byte and every delivery deadline, and
// the server's instance counter shows how much bandwidth sharing saved.
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"vodcast"
)

func main() {
	srv, err := vodcast.StartServer(vodcast.ServeConfig{
		Addr: "127.0.0.1:0",
		Videos: []vodcast.ServeVideo{
			{ID: 1, Segments: 16, SegmentBytes: 2048},
		},
		SlotDuration: 25 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("server on %s: 16 segments, 25 ms slots\n\n", srv.Addr())

	// Eight customers arrive in two waves, half a video apart.
	const customers = 8
	var wg sync.WaitGroup
	results := make([]vodcast.FetchResult, customers)
	errs := make([]error, customers)
	for c := 0; c < customers; c++ {
		if c == customers/2 {
			time.Sleep(8 * 25 * time.Millisecond)
		}
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			results[id], errs[id] = vodcast.FetchWith(srv.Addr(), vodcast.FetchOptions{
				VideoID: 1, Timeout: 30 * time.Second, StrictDeadlines: true,
			})
		}(c)
	}
	wg.Wait()

	for c := 0; c < customers; c++ {
		if errs[c] != nil {
			log.Fatalf("customer %d: %v", c, errs[c])
		}
		fmt.Printf("customer %d: %2d segments verified, peak buffer %d, %.2fs\n",
			c, results[c].Segments, results[c].MaxBuffered, results[c].Elapsed.Seconds())
	}

	st := srv.Stats()
	unshared := int64(customers * 16)
	fmt.Printf("\nserver transmitted %d segment instances for %d customers\n", st.Instances, st.Requests)
	fmt.Printf("unicast would have needed %d — DHB saved %.0f%%\n",
		unshared, 100*(1-float64(st.Instances)/float64(unshared)))
}
