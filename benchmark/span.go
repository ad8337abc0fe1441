package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"time"
)

// span is one timed call into a layer. Spans of one session (or one tick)
// share Trace; Parent is the span that caused this one, 0 for a root. A
// span around an ns-scale loop carries the loop's operation count in Ops
// instead of being split per operation.
type span struct {
	ID, Parent int32
	Trace      int64
	Name       string
	Start, End int64 // ns since the recorder was created
	Ops, Bytes int64
}

// recorder keeps spans in memory; nothing is written until the run ends. A
// nil recorder, or one with On false, reads no clock and records nothing,
// which is how the untraced replay measures the tracing overhead.
type recorder struct {
	On    bool
	base  time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

// begin opens a span and returns its id. The clock is read last, after the
// bookkeeping, so that the bookkeeping falls outside the span.
func (r *recorder) begin(name string, parent int32, trace int64) int32 {
	if r == nil || !r.On {
		return 0
	}
	r.spans = append(r.spans, span{ID: int32(len(r.spans) + 1), Parent: parent, Trace: trace, Name: name})
	s := &r.spans[len(r.spans)-1]
	s.Start = int64(time.Since(r.base))
	return s.ID
}

// end closes a span; the clock is read first.
func (r *recorder) end(id int32, ops, bytes int64) {
	if id == 0 {
		return
	}
	now := int64(time.Since(r.base))
	s := &r.spans[id-1]
	s.End, s.Ops, s.Bytes = now, ops, bytes
}

// layerTotal aggregates the spans of one name.
type layerTotal struct {
	Count      int64 // spans
	Ops, Bytes int64
	SelfNs     int64
}

// perSpan is the mean self time of one span; perOp divides by the operations
// the spans counted instead. Both read 0 when nothing was counted.
func (t layerTotal) perSpan() float64 { return div(float64(t.SelfNs), float64(t.Count)) }
func (t layerTotal) perOp() float64   { return div(float64(t.SelfNs), float64(t.Ops)) }

// selfTimes folds spans by name. A span's self time is its duration minus
// the part of its interval that its children cover: children are clipped to
// the parent and overlapping children are counted once.
func selfTimes(spans []span) map[string]layerTotal {
	// Children grouped by parent and ordered by start.
	order := make([]int32, 0, len(spans))
	for i := range spans {
		if spans[i].Parent != 0 {
			order = append(order, int32(i))
		}
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := &spans[order[a]], &spans[order[b]]
		if sa.Parent != sb.Parent {
			return sa.Parent < sb.Parent
		}
		return sa.Start < sb.Start
	})
	covered := make([]int64, len(spans))
	for i := 0; i < len(order); {
		parent := &spans[spans[order[i]].Parent-1]
		// Sweep this parent's children left to right; curEnd is how far the
		// parent's interval is already covered.
		curEnd := parent.Start
		for ; i < len(order) && spans[order[i]].Parent == parent.ID; i++ {
			c := &spans[order[i]]
			lo, hi := max(c.Start, curEnd), min(c.End, parent.End)
			if hi > lo {
				covered[parent.ID-1] += hi - lo
				curEnd = hi
			}
		}
	}
	totals := make(map[string]layerTotal)
	for i := range spans {
		s := &spans[i]
		t := totals[s.Name]
		t.Count++
		t.Ops += s.Ops
		t.Bytes += s.Bytes
		t.SelfNs += s.End - s.Start - covered[i]
		totals[s.Name] = t
	}
	return totals
}

// writeSpansJSONL writes one span per line.
func writeSpansJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for i := range spans {
		s := &spans[i]
		line = append(line[:0], `{"id":`...)
		line = strconv.AppendInt(line, int64(s.ID), 10)
		line = append(line, `,"parent":`...)
		line = strconv.AppendInt(line, int64(s.Parent), 10)
		line = append(line, `,"trace":`...)
		line = strconv.AppendInt(line, s.Trace, 10)
		line = append(line, `,"name":`...)
		line = strconv.AppendQuote(line, s.Name)
		line = append(line, `,"start_ns":`...)
		line = strconv.AppendInt(line, s.Start, 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, s.End, 10)
		line = append(line, `,"ops":`...)
		line = strconv.AppendInt(line, s.Ops, 10)
		line = append(line, `,"bytes":`...)
		line = strconv.AppendInt(line, s.Bytes, 10)
		line = append(line, "}\n"...)
		if _, err := w.Write(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
