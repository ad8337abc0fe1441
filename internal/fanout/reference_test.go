package fanout

import (
	"bytes"
	"fmt"

	"vodcast/internal/wire"
)

// Reference is the retained pre-zero-copy encoding path — a bytes.Buffer
// filled through wire.WriteFrame with payloads generated per call, exactly
// as the channel-based fan-out did. It is the executable specification the
// differential test holds the Encoder to, and the "reference" arm of the
// BenchmarkFanOut A/B.
type Reference struct {
	sizes map[uint32][]int
}

// NewFanoutReference returns the reference encoder.
func NewFanoutReference() *Reference { return &Reference{sizes: make(map[uint32][]int)} }

// AddVideo registers a video; sizes[i] is the byte size of segment i+1.
func (r *Reference) AddVideo(id uint32, sizes []int) error {
	if _, dup := r.sizes[id]; dup {
		return fmt.Errorf("fanout: video %d added twice", id)
	}
	for i, sz := range sizes {
		if sz < 0 {
			return fmt.Errorf("fanout: video %d segment %d has negative size %d", id, i+1, sz)
		}
	}
	r.sizes[id] = sizes
	return nil
}

// EncodeSlot mirrors Encoder.EncodeSlot through the allocating path and
// returns the slot's wire bytes and total payload size.
func (r *Reference) EncodeSlot(videoID uint32, slot int, segments []int, drop func(segment int) bool) ([]byte, int64, error) {
	sizes, ok := r.sizes[videoID]
	if !ok {
		return nil, 0, fmt.Errorf("fanout: unknown video %d", videoID)
	}
	var buf bytes.Buffer
	payloadBytes := int64(0)
	for _, seg := range segments {
		if seg < 1 || seg > len(sizes) {
			return nil, 0, fmt.Errorf("fanout: video %d segment %d out of range 1..%d", videoID, seg, len(sizes))
		}
		if drop != nil && drop(seg) {
			continue
		}
		payload := wire.SegmentPayload(videoID, uint32(seg), uint32(sizes[seg-1]))
		frame := wire.Segment{VideoID: videoID, Segment: uint32(seg), Slot: uint64(slot), Payload: payload}
		if err := wire.WriteFrame(&buf, frame); err != nil {
			return nil, 0, err
		}
		payloadBytes += int64(len(payload))
	}
	if err := wire.WriteFrame(&buf, wire.SlotEnd{Slot: uint64(slot)}); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), payloadBytes, nil
}
