package fanout

import (
	"fmt"
	"sync"

	"vodcast/internal/wire"
)

// catalog holds the segment sizes of every video and, once a video's
// payloads are first needed, its payload bytes. Payloads are deterministic
// (wire.SegmentPayload) and VBR-sized — the per-segment sizes come from the
// server's video configs, which the trace planner fills in for VBR
// catalogues — so building a video's payloads once and sharing the
// read-only slices from then on is both correct and free, and a video nobody
// watches costs its sizes only.
type catalog struct {
	videos map[uint32]*catalogVideo
	// last is the most recently added video: a video whose sizes equal its
	// shares its size vector, so a CBR catalogue of one shape keeps one.
	last *catalogVideo
}

type catalogVideo struct {
	id    uint32
	sizes []uint32 // indexed by segment-1; the catalogue's own copy
	total int      // sum of sizes: the length of the payload backing array

	once     sync.Once
	payloads [][]byte // indexed by segment-1; nil until the first load
}

// load returns the video's payloads, building all of them on the first
// call into one backing array sliced per segment. Concurrent first calls
// block until the one builder is done.
func (v *catalogVideo) load() [][]byte {
	v.once.Do(func() {
		buf := make([]byte, 0, v.total)
		payloads := make([][]byte, len(v.sizes))
		for i, sz := range v.sizes {
			start := len(buf)
			buf = wire.AppendSegmentPayload(buf, v.id, uint32(i+1), sz)
			payloads[i] = buf[start:len(buf):len(buf)]
		}
		v.payloads = payloads
	})
	return v.payloads
}

func newCatalog() catalog { return catalog{videos: make(map[uint32]*catalogVideo)} }

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
	v := &catalogVideo{id: id}
	if c.last != nil && sameSizes(c.last.sizes, sizes) {
		v.sizes, v.total = c.last.sizes, c.last.total
	} else {
		v.sizes = make([]uint32, len(sizes))
		for i, sz := range sizes {
			v.sizes[i] = uint32(sz)
			v.total += int(v.sizes[i])
		}
	}
	c.videos[id] = v
	c.last = v
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
// the catalogue map is read-only after start-up, a video's payloads are
// published once through its sync.Once, and the frame pool is a sync.Pool,
// so parallel fan-out workers encoding disjoint catalogue spans share one
// encoder — each worker warms its own per-P pool cache and the steady state
// stays allocation-free per worker.
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
// wire.MaxBody is an error. No payload is built until the video's first
// BuildPayloads or EncodeSlot.
func (e *Encoder) AddVideo(id uint32, sizes []int) error { return e.cat.add(id, sizes) }

// BuildPayloads builds the video's payloads unless an earlier call or
// EncodeSlot has. The server calls it on a video's first admission, so the
// tick's EncodeSlot never builds payloads for an admitted video.
func (e *Encoder) BuildPayloads(videoID uint32) error {
	v, ok := e.cat.videos[videoID]
	if !ok {
		return fmt.Errorf("fanout: unknown video %d", videoID)
	}
	v.load()
	return nil
}

// EncodeSlot serializes one video's broadcast slot — every transmitted
// segment instance followed by the SlotEnd marker — into a pooled frame and
// returns it holding one reference owned by the caller. segments lists the
// 1-based segment ids the scheduler retired this slot; drop, when non-nil,
// is the fault-injection hook and suppresses an instance when it returns
// true. A video whose payloads BuildPayloads has not built has them built
// by its first call, after validating segments; every other call performs
// zero allocations: it copies cached payloads into a frame whose backing
// array is reused across slots.
func (e *Encoder) EncodeSlot(videoID uint32, slot int, segments []int, drop func(segment int) bool) (*Frame, error) {
	v, ok := e.cat.videos[videoID]
	if !ok {
		return nil, fmt.Errorf("fanout: unknown video %d", videoID)
	}
	for _, seg := range segments {
		if seg < 1 || seg > len(v.sizes) {
			return nil, fmt.Errorf("fanout: video %d segment %d out of range 1..%d", videoID, seg, len(v.sizes))
		}
	}
	payloads := v.load()
	f := e.pool.get(slot)
	for _, seg := range segments {
		if drop != nil && drop(seg) {
			continue
		}
		payload := payloads[seg-1]
		f.data = wire.AppendSegmentFrame(f.data, videoID, uint32(seg), uint64(slot), payload)
		f.payloadBytes += int64(len(payload))
	}
	f.data = wire.AppendSlotEndFrame(f.data, uint64(slot))
	return f, nil
}
