package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"

	"vodcast/internal/client"
	"vodcast/internal/core"
	"vodcast/internal/fanout"
	"vodcast/internal/obs"
	"vodcast/internal/station"
	"vodcast/internal/wire"
)

// This file is the traced replay: the arrival schedule of the live run, fed
// in virtual slot time through the layers' public functions in the order
// vodserver calls them, with a span around every call. It runs in this
// process, single-threaded, so a span's duration is CPU time of the layer
// and nothing else. The station, encoder, rings and sets are wired the way
// vodserver.Start wires them at this commit (scheduler observer attached to
// a ring tracer, segment tracking on, 64-frame rings); the live rows, not
// these, are the truth when that wiring changes.

// Span names. The ones in serverLayers are steps the server executes per
// session or per tick; their self times sum to the ledger's layer total.
const (
	spanSession       = "session"
	spanSessionClose  = "session.close"
	spanTick          = "tick"
	spanRequestDecode = "wire.request_decode"
	spanSubscribe     = "fanout.subscribe"
	spanAdmit         = "station.admit"
	spanInfoBuild     = "vodserver.schedinfo_build"
	spanInfoEncode    = "wire.schedinfo_encode"
	spanAdvance       = "station.advance"
	spanEncode        = "fanout.encode"
	spanPush          = "fanout.push"
	spanRetire        = "fanout.retire"
	spanDrain         = "fanout.drain"
	spanSegmentDecode = "wire.segment_decode"
	spanReportDecode  = "wire.report_decode"
)

var serverLayers = []string{
	spanRequestDecode, spanSubscribe, spanAdmit, spanInfoBuild, spanInfoEncode,
	spanAdvance, spanEncode, spanPush, spanRetire, spanDrain, spanReportDecode,
}

// ringCapacity is vodserver's default Config.SubscriberBuffer.
const ringCapacity = 64

// oracleEvery is k in the 1-in-k sample of replayed subscribers that decode
// their drained bytes and run the STB oracle.
const oracleEvery = 8

// countingWriter stands in for the socket: it discards and counts.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

type replaySub struct {
	ring        *fanout.Ring
	trace       int64
	video       int // 0-based catalogue index
	from        int
	admit, last int
	frames      int
	stb         *client.STB // sampled subscribers only
	slotSegs    []int
}

type replayVideo struct {
	id      uint32
	periods []int
	subs    *fanout.Set[*replaySub]
}

// replayStats is what one replay pass counted.
type replayStats struct {
	Wall           time.Duration
	Sessions       int // replayed
	WindowSessions int // due inside the recorded window
	WindowTicks    int
	Placed         int64 // new segment instances the window's admissions scheduled
	OracleSessions int
}

// replay feeds sched through the layers. Spans are recorded only for
// arrivals due, and ticks falling, in [winLo, winHi), the same window the
// live run measures, so per-session sums compare like with like.
func replay(w workload, sched []arrival, table payloadTable, shards int, winLo, winHi time.Duration, rec *recorder) (replayStats, error) {
	var stats replayStats
	tracer := obs.NewTracer(nil, 0)
	cfg := station.Config{Videos: make([]station.VideoConfig, w.Videos), Shards: shards}
	enc := fanout.NewEncoder()
	sizes := make([]int, w.Segments)
	for j := range sizes {
		sizes[j] = w.SegmentBytes
	}
	for i := range cfg.Videos {
		id := uint32(i + 1)
		cfg.Videos[i] = station.VideoConfig{
			Name: strconv.Itoa(i + 1), Segments: w.Segments, TrackSegments: true,
			Observer: obs.SchedObserver{Video: id, T: tracer},
		}
		if err := enc.AddVideo(id, sizes); err != nil {
			return stats, err
		}
	}
	st, err := station.New(cfg)
	if err != nil {
		return stats, err
	}
	defer st.Close()
	videos := make([]replayVideo, w.Videos)
	for i := range videos {
		videos[i] = replayVideo{id: uint32(i + 1), periods: st.Periods(i), subs: fanout.NewSet[*replaySub]()}
	}

	// Wire bytes prepared outside the timed region: every request frame and
	// one client report (its content does not change the decode cost).
	reqFrames := make([][]byte, len(sched))
	var buf bytes.Buffer
	for i, a := range sched {
		buf.Reset()
		if err := wire.WriteFrame(&buf, wire.Request{VideoID: a.Video, FromSegment: a.From, Version: wire.ProtoV2}); err != nil {
			return stats, err
		}
		reqFrames[i] = bytes.Clone(buf.Bytes())
	}
	buf.Reset()
	if err := wire.WriteFrame(&buf, wire.ClientReport{Version: wire.ProtoV2, VideoID: 1}); err != nil {
		return stats, err
	}
	reportFrame := bytes.Clone(buf.Bytes())

	var (
		sink     countingWriter
		rd       bytes.Reader
		reports  []core.SlotReport
		active   []*replaySub // pushed to this tick, in video order
		pushedBy []int        // active[] boundaries, one per video with an audience
		frames   []*fanout.Frame
		retire   []*replaySub
		finished []*replaySub
		live     int
		next     int
	)
	slotDur := w.slot()
	began := time.Now()
	for slot := 0; next < len(sched) || live > 0; slot++ {
		slotStart := time.Duration(slot) * slotDur
		recording := slotStart >= winLo && slotStart < winHi
		if rec != nil {
			rec.On = recording
		}

		// Arrivals due during this slot are admitted before it retires.
		for ; next < len(sched) && sched[next].Due < slotStart+slotDur; next++ {
			trace := int64(next + 1)
			root := rec.begin(spanSession, 0, trace)

			sp := rec.begin(spanRequestDecode, root, trace)
			rd.Reset(reqFrames[next])
			msg, err := wire.ReadFrame(&rd)
			rec.end(sp, 1, int64(len(reqFrames[next])))
			if err != nil {
				return stats, err
			}
			req, ok := msg.(wire.Request)
			if !ok || int(req.VideoID) < 1 || int(req.VideoID) > w.Videos {
				return stats, fmt.Errorf("replay: bad request %+v", msg)
			}
			v := &videos[req.VideoID-1]
			from := int(req.FromSegment)

			// The subscription is registered before the admission reaches the
			// scheduler, as in vodserver.admit.
			sp = rec.begin(spanSubscribe, root, trace)
			sub := &replaySub{ring: fanout.NewRing(ringCapacity), trace: trace, video: int(req.VideoID - 1)}
			added := v.subs.Add(sub)
			rec.end(sp, 1, 0)
			if !added {
				return stats, errors.New("replay: subscriber set closed")
			}

			sp = rec.begin(spanAdmit, root, trace)
			res, err := st.Admit(sub.video, core.AdmitOptions{From: from})
			rec.end(sp, 1, 0)
			if err != nil {
				return stats, err
			}

			sp = rec.begin(spanInfoBuild, root, trace)
			suffixMax := 0
			for k := 1; k <= w.Segments-from+1; k++ {
				suffixMax = max(suffixMax, v.periods[k])
			}
			periods := make([]uint32, w.Segments)
			for j := 1; j <= w.Segments; j++ {
				periods[j-1] = uint32(v.periods[j])
			}
			info := wire.ScheduleInfo{
				VideoID: v.id, Segments: uint32(w.Segments), SlotMillis: uint32(w.SlotMillis),
				SegmentBytes: uint32(w.SegmentBytes), AdmitSlot: uint64(res.Slot),
				Version: wire.ProtoV2, Periods: periods,
			}
			rec.end(sp, 1, 0)
			sub.admit, sub.last = res.Slot, res.Slot+suffixMax

			sp = rec.begin(spanInfoEncode, root, trace)
			before := sink.n
			err = wire.WriteFrame(&sink, info)
			rec.end(sp, 1, sink.n-before)
			if err != nil {
				return stats, err
			}
			rec.end(root, 0, 0)

			if next%oracleEvery == 0 {
				if sub.stb, err = client.NewFrom(sub.admit, v.periods, from); err != nil {
					return stats, err
				}
				stats.OracleSessions++
			}
			if recording {
				stats.WindowSessions++
				stats.Placed += int64(res.Placed)
			}
			stats.Sessions++
			live++
		}

		// The tick: retire the slot, then walk the catalogue as fanOutSpan
		// does. The walk span's self time is the encode-and-release loop over
		// every video; pushes and retirements are its children.
		tick := int64(-slot - 1)
		root := rec.begin(spanTick, 0, tick)
		sp := rec.begin(spanAdvance, root, tick)
		reports = st.AdvanceSlotInto(reports)
		rec.end(sp, int64(len(reports)), 0)

		active, pushedBy = active[:0], pushedBy[:0]
		walk := rec.begin(spanEncode, root, tick)
		var encoded int64
		for i := range videos {
			v := &videos[i]
			rep := reports[i]
			frame, err := enc.EncodeSlot(v.id, rep.Slot, rep.Segments, nil)
			if err != nil {
				return stats, err
			}
			encoded += int64(len(frame.Bytes()))
			if subs := v.subs.Snapshot(); len(subs) > 0 {
				sp := rec.begin(spanPush, walk, tick)
				for _, sub := range subs {
					frame.Retain()
					if _, ok := sub.ring.Push(frame); !ok {
						return stats, fmt.Errorf("replay: ring full for session %d", sub.trace)
					}
					if rep.Slot >= sub.last {
						retire = append(retire, sub)
					}
				}
				active = append(active, subs...)
				pushedBy = append(pushedBy, len(active))
				rec.end(sp, int64(len(subs)), 0)
			}
			frame.Release()
			if len(retire) > 0 {
				sp := rec.begin(spanRetire, walk, tick)
				for _, sub := range retire {
					if v.subs.Remove(sub) {
						sub.ring.Close()
					}
				}
				rec.end(sp, int64(len(retire)), 0)
				retire = retire[:0]
			}
		}
		rec.end(walk, int64(len(videos)), encoded)

		// Drain: what each connection's writer goroutine does after the ring
		// wakes it, one batch per subscriber per slot.
		lo := 0
		for _, hi := range pushedBy {
			sp := rec.begin(spanDrain, root, tick)
			var drained int64
			for _, sub := range active[lo:hi] {
				var open bool
				frames, open = sub.ring.PopAll(frames[:0])
				for _, f := range frames {
					if f.Slot() > sub.admit {
						drained += int64(len(f.Bytes()))
						sub.frames++
						if sub.stb != nil {
							dsp := rec.begin(spanSegmentDecode, sp, tick)
							nseg, err := sub.decode(f.Bytes(), videos[sub.video].id, table, &rd)
							rec.end(dsp, int64(nseg), int64(len(f.Bytes())))
							if err != nil {
								return stats, err
							}
						}
					}
					f.Release()
				}
				if !open {
					finished = append(finished, sub)
				}
			}
			rec.end(sp, int64(hi-lo), drained)
			lo = hi
		}
		rec.end(root, 0, 0)

		// Session end: the report the server reads after the ring closes.
		for _, sub := range finished {
			croot := rec.begin(spanSessionClose, 0, sub.trace)
			sp := rec.begin(spanReportDecode, croot, sub.trace)
			rd.Reset(reportFrame)
			_, err := wire.ReadFrame(&rd)
			rec.end(sp, 1, int64(len(reportFrame)))
			rec.end(croot, 0, 0)
			if err != nil {
				return stats, err
			}
			if want := sub.last - sub.admit; sub.frames != want {
				return stats, fmt.Errorf("replay: session %d drained %d slots, want %d", sub.trace, sub.frames, want)
			}
			if sub.stb != nil && !sub.stb.Complete() {
				return stats, fmt.Errorf("replay: session %d ended incomplete", sub.trace)
			}
			live--
		}
		finished = finished[:0]
		if recording {
			stats.WindowTicks++
		}
	}
	stats.Wall = time.Since(began)
	return stats, nil
}

// decode parses one drained slot frame as the client would, verifies every
// payload and feeds the slot to the oracle. It returns the frames decoded.
func (s *replaySub) decode(data []byte, videoID uint32, table payloadTable, rd *bytes.Reader) (int, error) {
	rd.Reset(data)
	n := 0
	for {
		msg, err := wire.ReadFrame(rd)
		if err == io.EOF {
			return n, errors.New("replay: slot frame without SlotEnd")
		}
		if err != nil {
			return n, err
		}
		n++
		switch m := msg.(type) {
		case wire.Segment:
			if m.VideoID != videoID || !bytes.Equal(m.Payload, table[videoID-1][m.Segment-1]) {
				return n, fmt.Errorf("replay: corrupt segment %d of video %d", m.Segment, m.VideoID)
			}
			s.slotSegs = append(s.slotSegs, int(m.Segment))
		case wire.SlotEnd:
			err := s.stb.ObserveSlot(int(m.Slot), s.slotSegs)
			s.slotSegs = s.slotSegs[:0]
			return n, err
		default:
			return n, fmt.Errorf("replay: unexpected frame %T", msg)
		}
	}
}
