package fanout

import (
	"fmt"

	"vodcast/internal/wire"
)

// catalog holds the pre-generated payload bytes of every (video, segment)
// pair. Payloads are deterministic (wire.SegmentPayload) and VBR-sized —
// the per-segment sizes come from the server's video configs, which the
// trace planner fills in for VBR catalogues — so generating them once at
// start-up and sharing the read-only slices is both correct and free.
type catalog struct {
	videos map[uint32]*catalogVideo
}

type catalogVideo struct {
	payloads [][]byte // indexed by segment-1
	total    int      // sum of payload sizes plus framing for one full slot, a capacity hint
}

func newCatalog() catalog { return catalog{videos: make(map[uint32]*catalogVideo)} }

// add registers a video: sizes[i] is the byte size of segment i+1.
func (c *catalog) add(id uint32, sizes []int) error {
	if _, dup := c.videos[id]; dup {
		return fmt.Errorf("fanout: video %d added twice", id)
	}
	v := &catalogVideo{payloads: make([][]byte, len(sizes))}
	for i, sz := range sizes {
		if sz < 0 {
			return fmt.Errorf("fanout: video %d segment %d has negative size %d", id, i+1, sz)
		}
		v.payloads[i] = wire.SegmentPayload(id, uint32(i+1), uint32(sz))
		v.total += sz
	}
	c.videos[id] = v
	return nil
}

// Encoder serializes broadcast slots into pooled, ref-counted frames using
// the zero-copy wire appenders. One encoder serves one server. EncodeSlot
// is safe for concurrent use once the catalogue is built (AddVideo is not):
// the catalogue is read-only after start-up and the frame pool is a
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

// AddVideo pre-generates the payload bytes of one video; sizes[i] is the
// byte size of segment i+1.
func (e *Encoder) AddVideo(id uint32, sizes []int) error { return e.cat.add(id, sizes) }

// EncodeSlot serializes one video's broadcast slot — every transmitted
// segment instance followed by the SlotEnd marker — into a pooled frame and
// returns it holding one reference owned by the caller. segments lists the
// 1-based segment ids the scheduler retired this slot; drop, when non-nil,
// is the fault-injection hook and suppresses an instance when it returns
// true. Steady state performs zero allocations: payloads are pre-generated
// and the frame's backing array is reused across slots.
func (e *Encoder) EncodeSlot(videoID uint32, slot int, segments []int, drop func(segment int) bool) (*Frame, error) {
	v, ok := e.cat.videos[videoID]
	if !ok {
		return nil, fmt.Errorf("fanout: unknown video %d", videoID)
	}
	f := e.pool.get(slot)
	for _, seg := range segments {
		if seg < 1 || seg > len(v.payloads) {
			f.Release()
			return nil, fmt.Errorf("fanout: video %d segment %d out of range 1..%d", videoID, seg, len(v.payloads))
		}
		if drop != nil && drop(seg) {
			continue
		}
		payload := v.payloads[seg-1]
		f.data = wire.AppendSegmentFrame(f.data, videoID, uint32(seg), uint64(slot), payload)
		f.payloadBytes += int64(len(payload))
	}
	f.data = wire.AppendSlotEndFrame(f.data, uint64(slot))
	return f, nil
}
