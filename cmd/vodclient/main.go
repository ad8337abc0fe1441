// Command vodclient is the set-top-box side of the networked DHB system: it
// requests a video from a running vodserver, verifies every byte and every
// delivery deadline, and prints the session summary.
//
// Usage:
//
//	vodclient -addr 127.0.0.1:4800 -video 1
//	vodclient -addr 127.0.0.1:4800 -video 1 -count 5   # five customers
//	vodclient -addr 127.0.0.1:4800 -video 1 -strict    # hard-fail on any missed deadline
//
// By default the client tolerates missed deadlines (recording them as QoE),
// joins the server's admit trace, and reports its session telemetry back at
// the end; -strict, -no-trace and -no-report flip each behaviour.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"vodcast/internal/vodclient"
)

func main() {
	addr, opts, count, err := parseFlags(os.Args[1:])
	if err == nil {
		err = run(addr, opts, count)
	}
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "vodclient:", err)
		os.Exit(1)
	}
}

// parseFlags reads the command line into the server address, the session
// options and the customer count. Video ids and segment numbers are 32-bit
// on the wire, so a larger value is an error rather than a silent wrap.
func parseFlags(args []string) (string, vodclient.FetchOptions, int, error) {
	var opts vodclient.FetchOptions
	fs := flag.NewFlagSet("vodclient", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:4800", "server address")
	video := fs.Uint("video", 1, "video id to request")
	count := fs.Int("count", 1, "number of concurrent customers to simulate")
	from := fs.Uint("from", 1, "resume playback at this segment (1 = the beginning)")
	fs.DurationVar(&opts.Timeout, "timeout", 5*time.Minute, "session timeout")
	fs.BoolVar(&opts.NoReport, "no-report", false, "opt out of sending the end-of-session QoE report")
	fs.BoolVar(&opts.NoTrace, "no-trace", false, "opt out of joining the server's admit trace")
	fs.BoolVar(&opts.StrictDeadlines, "strict", false, "fail the session on the first missed delivery deadline (instead of recording it as QoE)")
	if err := fs.Parse(args); err != nil {
		return "", opts, 0, err
	}
	if *video > math.MaxUint32 || *from > math.MaxUint32 {
		return "", opts, 0, fmt.Errorf("-video %d or -from %d exceeds %d", *video, *from, uint32(math.MaxUint32))
	}
	opts.VideoID, opts.From = uint32(*video), uint32(*from)
	return *addr, opts, *count, nil
}

func run(addr string, opts vodclient.FetchOptions, count int) error {
	if count <= 0 {
		return fmt.Errorf("count %d must be positive", count)
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		failure error
	)
	for c := 0; c < count; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			res, err := vodclient.FetchWith(addr, opts)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				fmt.Printf("customer %d: FAILED: %v\n", id, err)
				if failure == nil {
					failure = err
				}
				return
			}
			fmt.Printf("customer %d: video %d complete — %d segments, %.1f KB verified, "+
				"%d shared frames, peak buffer %d segments, first byte %.2fs, %.2fs\n",
				id, res.VideoID, res.Segments, float64(res.PayloadBytes)/1e3,
				res.SharedFrames, res.MaxBuffered, res.FirstByte.Seconds(), res.Elapsed.Seconds())
			fmt.Printf("customer %d: QoE — startup %d slots, min slack %d, mean slack %.1f, "+
				"%d misses, %d rebuffers, %d missing, trace %#x\n",
				id, res.StartupSlots, res.MinSlackSlots, res.MeanSlackSlots,
				res.DeadlineMisses, res.Rebuffers, res.MissingSegments, res.TraceID)
		}(c)
	}
	wg.Wait()
	return failure
}
