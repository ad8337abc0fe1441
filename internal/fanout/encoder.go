package fanout

import (
	"fmt"

	"vodcast/internal/wire"
)

// catalog holds the segment sizes of every video. Payloads are
// deterministic (wire.AppendSegmentPayload) and VBR-sized — the per-segment
// sizes come from the server's video configs, which the trace planner fills
// in for VBR catalogues — so the sizes are all a video keeps: each slot's
// frame generates its instances' bytes in place, and a video costs its
// sizes whether or not anyone watches it.
type catalog struct {
	// videos maps a video's ID to its sizes, indexed by segment-1: the
	// catalogue's own copy.
	videos map[uint32][]uint32
	// last is the most recently added video's sizes: a video whose sizes
	// equal them shares the vector, so a CBR catalogue of one shape keeps one.
	last []uint32
}

func newCatalog() catalog { return catalog{videos: make(map[uint32][]uint32)} }

// add registers a video: sizes[i] is the byte size of segment i+1.
func (c *catalog) add(id uint32, sizes []int) error {
	if _, dup := c.videos[id]; dup {
		return fmt.Errorf("fanout: video %d added twice", id)
	}
	for i, sz := range sizes {
		if sz < 0 {
			return fmt.Errorf("fanout: video %d segment %d has negative size %d", id, i+1, sz)
		}
		// A Segment frame's body is its 16-byte head plus the payload.
		if 16+sz > wire.MaxBody {
			return fmt.Errorf("fanout: video %d segment %d size %d exceeds the wire's %d-byte frame body with its 16-byte head",
				id, i+1, sz, wire.MaxBody)
		}
	}
	if c.last == nil || !sameSizes(c.last, sizes) {
		c.last = make([]uint32, len(sizes))
		for i, sz := range sizes {
			c.last[i] = uint32(sz)
		}
	}
	c.videos[id] = c.last
	return nil
}

// sameSizes reports whether the catalogue's vector have holds exactly sizes.
func sameSizes(have []uint32, sizes []int) bool {
	if len(have) != len(sizes) {
		return false
	}
	for i, sz := range sizes {
		if int(have[i]) != sz {
			return false
		}
	}
	return true
}

// Encoder serializes broadcast slots into pooled, ref-counted frames using
// the zero-copy wire appenders. One encoder serves one server. EncodeSlot
// is safe for concurrent use once the catalogue is built (AddVideo is not):
// the catalogue map is read-only after start-up and the frame pool is a
// sync.Pool, so parallel fan-out workers encoding disjoint catalogue spans
// share one encoder — each worker warms its own per-P pool cache and the
// steady state stays allocation-free per worker.
type Encoder struct {
	cat  catalog
	pool *Pool
}

// NewEncoder returns an encoder with an empty catalogue.
func NewEncoder() *Encoder {
	return &Encoder{cat: newCatalog(), pool: NewPool()}
}

// Outstanding returns how many frames the encoder's pool has handed out
// that have not come back: frames some holder has not released. Once every
// producer and consumer is done it is zero; anything else is a leak.
func (e *Encoder) Outstanding() int64 { return e.pool.out.Load() }

// AddVideo registers one video's segment sizes; sizes[i] is the byte size
// of segment i+1, and a size whose Segment frame body would exceed
// wire.MaxBody is an error. The video keeps its sizes only: no payload is
// built ahead of the slot that transmits it.
func (e *Encoder) AddVideo(id uint32, sizes []int) error { return e.cat.add(id, sizes) }

// EncodeSlot serializes one video's broadcast slot — every transmitted
// segment instance followed by the SlotEnd marker — into a pooled frame and
// returns it holding one reference owned by the caller. segments lists the
// 1-based segment ids the scheduler retired this slot; drop, when non-nil,
// is the fault-injection hook and suppresses an instance when it returns
// true. Each instance's payload is generated straight into the frame, once
// per transmitted instance and never per subscriber, and the frame's backing
// array is reused across slots, so the steady state allocates nothing.
func (e *Encoder) EncodeSlot(videoID uint32, slot int, segments []int, drop func(segment int) bool) (*Frame, error) {
	sizes, ok := e.cat.videos[videoID]
	if !ok {
		return nil, fmt.Errorf("fanout: unknown video %d", videoID)
	}
	for _, seg := range segments {
		if seg < 1 || seg > len(sizes) {
			return nil, fmt.Errorf("fanout: video %d segment %d out of range 1..%d", videoID, seg, len(sizes))
		}
	}
	f := e.pool.get(slot)
	for _, seg := range segments {
		if drop != nil && drop(seg) {
			continue
		}
		size := sizes[seg-1]
		f.data = wire.AppendSegmentFrame(f.data, videoID, uint32(seg), uint64(slot), size)
		f.payloadBytes += int64(size)
	}
	f.data = wire.AppendSlotEndFrame(f.data, uint64(slot))
	return f, nil
}
