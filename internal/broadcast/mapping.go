// Package broadcast implements the proactive (static) broadcasting protocols
// of the paper's related work: Juhn and Tseng's fast broadcasting (FB,
// Figure 1), Pâris's pagoda-family broadcasting standing in for new pagoda
// broadcasting (NPB, Figure 2), and Hua and Sheu's skyscraper broadcasting
// (SB, Figure 3).
//
// All three share one representation: each server stream is partitioned into
// M substreams by slot residue, and substream r carries a run of consecutive
// segments round-robin. A segment carried by a substream with Count segments
// and slot spacing M is rebroadcast with period Count*M, and every protocol
// maintains the broadcasting invariant period(S_i) <= i, which guarantees
// that a client downloading all streams from the slot after its arrival
// receives every segment in time.
package broadcast

import (
	"fmt"
	"strings"
)

// Substream is a run of Count consecutive segments starting at Start,
// broadcast round-robin in the slots of one residue class of its stream.
// A Count of zero marks an unused (idle) substream.
type Substream struct {
	Start int
	Count int
}

// Stream is one server channel: M substreams interleaved by slot residue.
// Subs must have length M.
type Stream struct {
	M    int
	Subs []Substream
}

// Mapping is a complete segment-to-stream assignment for segments 1..N.
type Mapping struct {
	n       int
	streams []Stream
	// segHome[i] locates segment i: stream index and substream index.
	segHome []struct{ stream, sub int }
}

// NewMapping validates and indexes a hand-built stream layout covering
// segments 1..n exactly once.
func NewMapping(n int, streams []Stream) (*Mapping, error) {
	m := &Mapping{n: n, streams: streams}
	m.segHome = make([]struct{ stream, sub int }, n+1)
	seen := make([]bool, n+1)
	for js, st := range streams {
		if st.M <= 0 || len(st.Subs) != st.M {
			return nil, fmt.Errorf("broadcast: stream %d has M=%d with %d substreams", js+1, st.M, len(st.Subs))
		}
		for r, sub := range st.Subs {
			if sub.Count < 0 {
				return nil, fmt.Errorf("broadcast: stream %d substream %d has negative count", js+1, r)
			}
			for k := 0; k < sub.Count; k++ {
				seg := sub.Start + k
				if seg < 1 || seg > n {
					return nil, fmt.Errorf("broadcast: segment %d outside 1..%d", seg, n)
				}
				if seen[seg] {
					return nil, fmt.Errorf("broadcast: segment %d assigned twice", seg)
				}
				seen[seg] = true
				m.segHome[seg] = struct{ stream, sub int }{js, r}
			}
		}
	}
	for s := 1; s <= n; s++ {
		if !seen[s] {
			return nil, fmt.Errorf("broadcast: segment %d unassigned", s)
		}
	}
	if err := m.checkPeriods(); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *Mapping) checkPeriods() error {
	for s := 1; s <= m.n; s++ {
		if p := m.Period(s); p > s {
			return fmt.Errorf("broadcast: segment %d has period %d > %d, violating the broadcasting invariant", s, p, s)
		}
	}
	return nil
}

// N reports the number of segments.
func (m *Mapping) N() int { return m.n }

// Streams reports the number of server streams (channels).
func (m *Mapping) Streams() int { return len(m.streams) }

// Period reports the rebroadcast period of segment s in slots.
func (m *Mapping) Period(s int) int {
	home := m.segHome[s]
	st := m.streams[home.stream]
	return st.Subs[home.sub].Count * st.M
}

// segmentAt reports which segment stream j (0-based) broadcasts during
// absolute slot t (0-based), or 0 if that slot is idle.
func (m *Mapping) segmentAt(j, t int) int {
	st := m.streams[j]
	r := t % st.M
	sub := st.Subs[r]
	if sub.Count == 0 {
		return 0
	}
	idx := (t / st.M) % sub.Count
	return sub.Start + idx
}

// FirstOccurrenceAfter reports the earliest slot strictly after slot t in
// which segment s is broadcast.
func (m *Mapping) FirstOccurrenceAfter(s, t int) int {
	home := m.segHome[s]
	st := m.streams[home.stream]
	sub := st.Subs[home.sub]
	// Segment s occupies slots with residue home.sub (mod st.M) whose
	// round-robin index matches its offset inside the substream.
	offset := s - sub.Start
	// Slots carrying s satisfy: slot = (q*sub.Count + offset)*st.M + home.sub.
	period := sub.Count * st.M
	first := offset*st.M + home.sub
	if first > t {
		return first
	}
	k := (t - first) / period
	return first + (k+1)*period
}

// Render draws the first `slots` slots of every stream as rows of segment
// labels, the format of the paper's Figures 1-3.
func (m *Mapping) Render(slots int) []string {
	rows := make([]string, len(m.streams))
	for j := range m.streams {
		var b strings.Builder
		for t := 0; t < slots; t++ {
			if t > 0 {
				b.WriteByte(' ')
			}
			if s := m.segmentAt(j, t); s == 0 {
				b.WriteString("--")
			} else {
				fmt.Fprintf(&b, "S%d", s)
			}
		}
		rows[j] = b.String()
	}
	return rows
}
