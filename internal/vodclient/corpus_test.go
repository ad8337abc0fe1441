package vodclient

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vodcast/internal/wire"
)

var updateCorpus = flag.Bool("update", false, "re-record testdata/qoe_corpus.txt from the current code")

const corpusSeeds = 240

// corpusStream is one scripted session: the schedule the server grants and,
// per slot from the admission slot on, the segment frames it sends and
// whether it closes the slot with a SlotEnd (a skipped SlotEnd folds the
// slot's frames into the next one).
type corpusStream struct {
	info wire.ScheduleInfo
	from uint32
	segs [][]uint32 // segs[k] is sent in slot AdmitSlot+k
	ends []bool

	// What the stream exercises, for the coverage check.
	nonMonotone, resume, withheld, late, repeat, dup, adjacentMiss, separatedMiss bool
}

// genCorpusStream builds the stream for one seed: even seeds broadcast a CBR
// (T[j] = j) vector, odd seeds a stretched, non-monotone DHB-d style one.
// Each needed segment is sent on time, withheld, re-sent late, or sent on
// time and repeated in a later slot; some frames are duplicated within their
// slot, some land in the admission slot (too early to use) or carry a segment
// a resumed customer already holds.
func genCorpusStream(seed int64) corpusStream {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(11)
	periods := make([]uint32, n)
	for j := 1; j <= n; j++ {
		periods[j-1] = uint32(j)
		if seed%2 == 1 && j > 1 {
			periods[j-1] = uint32(1 + rng.Intn(2*j))
		}
	}
	s := corpusStream{from: 1}
	for j := 1; j < n; j++ {
		s.nonMonotone = s.nonMonotone || periods[j] < periods[j-1]
	}
	if rng.Intn(3) == 0 {
		s.from = uint32(1 + rng.Intn(n))
		s.resume = s.from > 1
	}
	admit := rng.Intn(20)
	span := 0
	for k := 0; k <= n-int(s.from); k++ {
		span = max(span, int(periods[k]))
	}
	s.info = wire.ScheduleInfo{
		VideoID: 1 + uint32(rng.Intn(5)), Segments: uint32(n), SlotMillis: 10,
		SegmentBytes: 8, AdmitSlot: uint64(admit), Version: wire.ProtoV2,
		TraceID: rng.Uint64(), SpanID: rng.Uint64(), Periods: periods,
	}
	if rng.Intn(4) == 0 {
		s.info.SegmentSizes = make([]uint32, n)
		for j := range s.info.SegmentSizes {
			s.info.SegmentSizes[j] = uint32(1 + rng.Intn(16))
		}
	}
	s.segs = make([][]uint32, span+1)
	s.ends = make([]bool, span+1)
	for k := range s.ends {
		s.ends[k] = k == span || rng.Intn(8) != 0
	}
	send := func(k int, j uint32) {
		if k <= span {
			s.segs[k] = append(s.segs[k], j)
		}
	}
	var missed []int // slot offsets of the deadlines that pass unmet
	for j := s.from; j <= uint32(n); j++ {
		due := int(periods[j-s.from])
		switch r := rng.Intn(10); {
		case r < 6:
			send(1+rng.Intn(due), j)
		case r == 6:
			s.withheld = true
			missed = append(missed, due)
		case r < 9:
			s.late = s.late || due < span
			missed = append(missed, due)
			send(due+1+rng.Intn(3), j)
		default:
			k := 1 + rng.Intn(due)
			send(k, j)
			send(k+1+rng.Intn(span), j)
			s.repeat = s.repeat || k < span
		}
	}
	if rng.Intn(3) == 0 {
		send(0, 1+uint32(rng.Intn(n))) // in the admission slot: unusable
	}
	if s.from > 1 && rng.Intn(2) == 0 {
		send(1+rng.Intn(span), 1+uint32(rng.Intn(int(s.from-1)))) // already held
	}
	for k := range s.segs {
		if len(s.segs[k]) > 0 && rng.Intn(5) == 0 {
			s.segs[k] = append(s.segs[k], s.segs[k][rng.Intn(len(s.segs[k]))])
			s.dup = true
		}
		rng.Shuffle(len(s.segs[k]), func(a, b int) { s.segs[k][a], s.segs[k][b] = s.segs[k][b], s.segs[k][a] })
	}
	seen := make(map[int]bool)
	for _, k := range missed {
		if s.ends[k] {
			seen[k] = true
		}
	}
	for k := range seen {
		s.adjacentMiss = s.adjacentMiss || seen[k+1]
		for g := k + 2; g <= span; g++ {
			s.separatedMiss = s.separatedMiss || (seen[g] && !seen[k+1])
		}
	}
	return s
}

// play writes the stream to conn and returns every byte the client sends
// back after its request: the encoded ClientReport, if any.
func (s corpusStream) play(conn net.Conn) []byte {
	w := bufio.NewWriter(conn)
	_ = wire.WriteFrame(w, s.info)
	for k, segs := range s.segs {
		slot := s.info.AdmitSlot + uint64(k)
		for _, j := range segs {
			_ = wire.WriteFrame(w, wire.Segment{
				VideoID: s.info.VideoID, Segment: j, Slot: slot,
				Payload: wire.SegmentPayload(s.info.VideoID, j, s.info.SizeOf(j)),
			})
		}
		if s.ends[k] {
			_ = wire.WriteFrame(w, wire.SlotEnd{Slot: slot})
		}
	}
	_ = w.Flush()
	back, _ := io.ReadAll(conn)
	return back
}

// corpusEntry runs one stream through FetchWith and renders what the session
// measured: its Result QoE fields and the ClientReport bytes it sent.
func corpusEntry(t *testing.T, seed int64, s corpusStream, strict bool) string {
	reported := make(chan []byte, 1)
	addr := fakeServerV2(t, func(conn net.Conn, req wire.Request) { reported <- s.play(conn) })
	opts := FetchOptions{VideoID: s.info.VideoID, From: s.from, Timeout: 5 * time.Second, StrictDeadlines: strict}
	if s.from == 1 && seed%4 == 0 {
		opts.From = 0
	}
	res, err := FetchWith(addr, opts)
	report := <-reported
	head := fmt.Sprintf("seed=%d strict=%v n=%d from=%d admit=%d", seed, strict, s.info.Segments, s.from, s.info.AdmitSlot)
	if err != nil {
		return fmt.Sprintf("%s err=%q report=%x", head, err.Error(), report)
	}
	return fmt.Sprintf("%s startup=%d misses=%d rebuffers=%d missing=%d minslack=%d meanslack=%v "+
		"slots=%d maxbuf=%d shared=%d bytes=%d report=%x",
		head, res.StartupSlots, res.DeadlineMisses, res.Rebuffers, res.MissingSegments,
		res.MinSlackSlots, res.MeanSlackSlots, res.SessionSlots, res.MaxBuffered,
		res.SharedFrames, res.PayloadBytes, report)
}

// TestQoECorpus replays a seeded corpus of scripted sessions, tolerant and
// strict, and requires each to measure exactly what testdata/qoe_corpus.txt
// recorded: the same Result QoE fields and the same ClientReport bytes, or
// the same error. Run with -update to re-record.
func TestQoECorpus(t *testing.T) {
	var lines []string
	var cover struct{ nonMonotone, resume, withheld, late, repeat, dup, adjacentMiss, separatedMiss int }
	for seed := int64(0); seed < corpusSeeds; seed++ {
		s := genCorpusStream(seed)
		for _, c := range []struct {
			hit bool
			n   *int
		}{
			{s.nonMonotone, &cover.nonMonotone}, {s.resume, &cover.resume},
			{s.withheld, &cover.withheld}, {s.late, &cover.late}, {s.repeat, &cover.repeat},
			{s.dup, &cover.dup}, {s.adjacentMiss, &cover.adjacentMiss}, {s.separatedMiss, &cover.separatedMiss},
		} {
			if c.hit {
				*c.n++
			}
		}
		lines = append(lines, corpusEntry(t, seed, s, false), corpusEntry(t, seed, s, true))
	}
	if cover.nonMonotone < 20 || cover.resume < 20 || cover.withheld < 20 || cover.late < 20 ||
		cover.repeat < 20 || cover.dup < 20 || cover.adjacentMiss < 20 || cover.separatedMiss < 20 {
		t.Fatalf("corpus coverage too thin: %+v", cover)
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "qoe_corpus.txt")
	if *updateCorpus {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("corpus has %d entries, testdata %d", len(lines), len(wantLines))
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Errorf("entry %d differs:\n got %s\nwant %s", i, lines[i], wantLines[i])
		}
	}
}
