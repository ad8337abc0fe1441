package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"time"
)

// workload is one fixed traffic mix. The names and parameters are cited by
// later issues, so they change only in a change of their own that re-records
// the baseline. The in-flight connection count (rate x session length) is
// the audience dimension the fan-out cost depends on; it is fixed here and
// never scaled with the host. The rates keep the server below a third of
// one CPU: at half a CPU one slow spell of a shared host tips the open loop
// into a backlog that outlasts the window (README.md, Workloads).
type workload struct {
	Name         string
	Videos       int
	Segments     int
	SegmentBytes int
	SlotMillis   int
	// Rate is the Poisson arrival rate in sessions per second.
	Rate float64
	// ResumeSpan > 0 makes every session resume uniformly in the last
	// ResumeSpan segments (from in n-ResumeSpan+1..n); 0 is a full viewing.
	ResumeSpan int
	Why        string
}

var workloads = []workload{
	{Name: "churn", Videos: 2, Segments: 6, SegmentBytes: 64, SlotMillis: 5, Rate: 1600,
		Why: "short sessions at a high rate: accept, request decode, admit, ScheduleInfo, six one-frame writes, report, close; tick and payload cost almost nothing"},
	{Name: "audience", Videos: 4, Segments: 99, SegmentBytes: 1024, SlotMillis: 20, Rate: 128,
		Why: "about 260 long sessions in flight: one encode per video, then a push, ring wake and vectored write per subscriber per slot; admissions are rare"},
	{Name: "longtail", Videos: 2048, Segments: 30, SegmentBytes: 256, SlotMillis: 10, Rate: 250,
		Why: "a mostly idle 2048-video catalogue: the per-slot advance and encode walk over every video dominates, pushes are few, and set-up pays for the payloads"},
	{Name: "resume", Videos: 8, Segments: 1000, SegmentBytes: 64, SlotMillis: 5, Rate: 1000, ResumeSpan: 8,
		Why: "resumes near the end of a 1000-segment video: admission cannot share a same-slot full viewing and every request pays the O(n) period vector"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) slot() time.Duration { return time.Duration(w.SlotMillis) * time.Millisecond }

// arrival is one scheduled session: Due is the offset from the start of the
// run at which the request is due to be sent, whatever the server is doing.
type arrival struct {
	Due   time.Duration
	Video uint32
	From  uint32
}

// rng is splitmix64. The schedule must be identical for a given seed on any
// Go release, which math/rand does not promise for its distributions.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// makeSchedule generates the open-loop arrival schedule of one run: Poisson
// arrivals at w.Rate over [0, horizon), video ids Zipf-distributed with skew
// 1.0 over 1..Videos, resume points uniform in the workload's span. The live
// run and the traced replay both consume exactly this slice; the server only
// ever sees the requests it produces.
func makeSchedule(w workload, seed uint64, horizon time.Duration) []arrival {
	r := rng(seed)
	for _, c := range []byte(w.Name) {
		r = rng(r.next() ^ uint64(c))
	}
	cdf := make([]float64, w.Videos)
	sum := 0.0
	for k := range cdf {
		sum += 1 / float64(k+1)
		cdf[k] = sum
	}
	sched := make([]arrival, 0, int(w.Rate*horizon.Seconds()*1.1)+16)
	t := 0.0
	for {
		t += -math.Log(1-r.float()) / w.Rate
		due := time.Duration(t * float64(time.Second))
		if due >= horizon {
			return sched
		}
		video := sort.SearchFloat64s(cdf, r.float()*sum)
		if video >= w.Videos {
			video = w.Videos - 1
		}
		from := 1
		if w.ResumeSpan > 0 {
			from = w.Segments - int(r.next()%uint64(w.ResumeSpan))
		}
		sched = append(sched, arrival{Due: due, Video: uint32(video + 1), From: uint32(from)})
	}
}

// scheduleHash identifies a schedule in run headers: the same workload and
// seed must print the same hash on every host.
func scheduleHash(sched []arrival) string {
	h := sha256.New()
	var rec [16]byte
	for _, a := range sched {
		binary.BigEndian.PutUint64(rec[0:], uint64(a.Due))
		binary.BigEndian.PutUint32(rec[8:], a.Video)
		binary.BigEndian.PutUint32(rec[12:], a.From)
		h.Write(rec[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// inWindow reports the half-open index range of arrivals due in [lo, hi).
func inWindow(sched []arrival, lo, hi time.Duration) (int, int) {
	i := sort.Search(len(sched), func(k int) bool { return sched[k].Due >= lo })
	j := sort.Search(len(sched), func(k int) bool { return sched[k].Due >= hi })
	return i, j
}

func (w workload) String() string {
	from := "from=1"
	if w.ResumeSpan > 0 {
		from = fmt.Sprintf("from=%d..%d", w.Segments-w.ResumeSpan+1, w.Segments)
	}
	return fmt.Sprintf("%s: %d videos x %d segments x %d B, %d ms slots, Poisson %g/s, Zipf 1.0, %s, CBR",
		w.Name, w.Videos, w.Segments, w.SegmentBytes, w.SlotMillis, w.Rate, from)
}
