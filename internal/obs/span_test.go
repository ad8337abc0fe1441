package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

// TestSpanTreeExport builds one admit tree and checks the JSONL export:
// parent links, attribution inheritance, durations from the installed clock.
func TestSpanTreeExport(t *testing.T) {
	var buf bytes.Buffer
	tr := NewSpanTracer(&buf, 1)
	now := 0.0
	tr.setClock(func() float64 { return now })

	root := tr.StartSpan("admit")
	root.SetVideo(7)
	now = 0.5
	child := root.Child("station_admit")
	child.SetAttr("batch", "16")
	now = 1.5
	child.End()
	now = 2.0
	root.End()
	root.End() // idempotent

	var recs []SpanRecord
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var r SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		recs = append(recs, r)
	}
	if len(recs) != 2 {
		t.Fatalf("exported %d spans, want 2", len(recs))
	}
	c, r := recs[0], recs[1] // children end first
	if c.Name != "station_admit" || r.Name != "admit" {
		t.Fatalf("order wrong: %q then %q", c.Name, r.Name)
	}
	if c.Parent != r.ID || r.Parent != 0 {
		t.Fatalf("parent links wrong: child.Parent=%d root.ID=%d root.Parent=%d", c.Parent, r.ID, r.Parent)
	}
	if c.Video != 7 {
		t.Fatalf("child did not inherit attribution: video=%d", c.Video)
	}
	if c.Start != 0.5 || c.Dur != 1.0 || r.Start != 0 || r.Dur != 2.0 {
		t.Fatalf("clocked intervals wrong: child %v+%v root %v+%v", c.Start, c.Dur, r.Start, r.Dur)
	}
	if c.Attrs["batch"] != "16" {
		t.Fatalf("attrs lost: %v", c.Attrs)
	}
	st := tr.Stats()
	if st.Roots != 1 || st.Sampled != 1 || st.Finished != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if tr.err != nil {
		t.Fatal(tr.err)
	}
}

// sampledSet records which of n roots a tracer with the given sampling
// period keeps.
func sampledSet(n, every int) []bool {
	tr := NewSpanTracer(nil, every)
	out := make([]bool, n)
	for i := range out {
		s := tr.StartSpan("root")
		out[i] = s != nil
		s.End()
	}
	return out
}

// TestSpanSamplingDeterminism: the fixed-seed sampler keeps exactly the
// same root set for the same arrivals, keeps everything at period 1, keeps
// roughly 1/every of a long sequence, and the nil span an unsampled root
// returns accepts every Span call.
func TestSpanSamplingDeterminism(t *testing.T) {
	const n = 4096
	a := sampledSet(n, 8)
	b := sampledSet(n, 8)
	kept := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sampled sets diverged at root %d", i)
		}
		if a[i] {
			kept++
		}
	}
	// Binomial(4096, 1/8): mean 512, sd ~21. Accept a generous +/- 6 sd.
	if kept < 384 || kept > 640 {
		t.Fatalf("kept %d of %d at period 8, want ~512", kept, n)
	}
	for i, keep := range sampledSet(64, 1) {
		if !keep {
			t.Fatalf("period 1 dropped root %d", i)
		}
	}
	st := NewSpanTracer(nil, 8)
	for i := 0; i < 100; i++ {
		st.StartSpan("r").End()
	}
	if s := st.Stats(); s.Roots != 100 || s.Sampled != s.Finished {
		t.Fatalf("sampling stats inconsistent: %+v", s)
	}

	unsampled := st.StartSpan("admit")
	for ; unsampled != nil; unsampled = st.StartSpan("admit") {
		unsampled.End()
	}
	before := st.Stats().Finished
	child := unsampled.Child("station_admit")
	child.SetVideo(1)
	child.SetAttr("k", "v")
	child.End()
	unsampled.End()
	if child != nil || unsampled.ID() != 0 || child.ID() != 0 || st.Stats().Finished != before {
		t.Fatal("unsampled tree produced a span, an ID or a record")
	}
}

// lockedBuffer is a goroutine-safe sink for the concurrency test (the
// tracer serializes writes, but the test also reads the buffer at the end).
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) Lines(t *testing.T) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	sc := bufio.NewScanner(bytes.NewReader(b.buf.Bytes()))
	for sc.Scan() {
		var r SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Errorf("bad concurrent JSONL line: %v", err)
		}
		n++
	}
	return n
}

// TestSpanConcurrency hammers start/child/end/export from many goroutines
// with concurrent Recent readers; run under -race this is the data-race
// proof for the span path.
func TestSpanConcurrency(t *testing.T) {
	sink := &lockedBuffer{}
	tr := NewSpanTracer(sink, 2)
	const (
		workers = 8
		perW    = 200
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				root := tr.StartSpan("admit")
				root.SetVideo(uint32(w + 1))
				c := root.Child("station_admit")
				c.SetAttr("i", fmt.Sprint(i))
				c.End()
				root.End()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			tr.Recent()
			tr.Stats()
		}
	}()
	wg.Wait()
	<-done

	st := tr.Stats()
	if st.Roots != workers*perW {
		t.Fatalf("roots = %d, want %d", st.Roots, workers*perW)
	}
	if st.Finished != 2*st.Sampled {
		t.Fatalf("finished %d != 2*sampled %d", st.Finished, st.Sampled)
	}
	if got := uint64(sink.Lines(t)); got != st.Finished {
		t.Fatalf("exported %d JSONL spans, stats say %d finished", got, st.Finished)
	}
	if recent := tr.Recent(); len(recent) != spanRingSize {
		t.Fatalf("ring holds %d, want full %d", len(recent), spanRingSize)
	}
	if tr.err != nil {
		t.Fatal(tr.err)
	}
}

func TestRecordChildJoinsTrace(t *testing.T) {
	var sink bytes.Buffer
	tr := NewSpanTracer(&sink, 1)
	tr.setClock(func() float64 { return 10 })

	root := tr.StartSpan("admit")
	if root.ID() == 0 {
		t.Fatal("sampled root has ID 0")
	}
	root.End()

	// A client report arrives later; the server synthesizes its spans as
	// children of the admit root it handed out on the wire.
	id := tr.RecordChild(root.ID(), "client_session", 10, 2.5, 7,
		map[string]string{"misses": "1"})
	if id == 0 {
		t.Fatal("RecordChild returned ID 0 on a live tracer")
	}
	recs := tr.Recent()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	child := recs[1]
	if child.Parent != root.ID() || child.Name != "client_session" ||
		child.Dur != 2.5 || child.Video != 7 || child.Attrs["misses"] != "1" {
		t.Fatalf("synthesized child mismatch: %+v", child)
	}
	if tr.Now() != 10 {
		t.Fatalf("Now() = %v, want 10 (installed clock)", tr.Now())
	}
}
