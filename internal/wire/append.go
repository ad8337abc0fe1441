package wire

import (
	"encoding/binary"
	"slices"
	"sync"
)

// This file is the zero-copy side of the codec: append-style encoders that
// serialize data-plane frames directly into a caller-owned buffer instead of
// allocating a body per frame the way WriteFrame does. The broadcast fan-out
// (internal/fanout) uses them to build one shared slot buffer per
// (video, slot) pair; fanout's differential test pins their output
// byte-for-byte to WriteFrame's.
//
// The appenders trust their caller on the MaxBody bound: the fan-out's
// catalogue refuses, at configuration time, any segment whose frame body
// would exceed it, so the per-frame check WriteFrame performs would be dead
// weight on the hot path.

// segmentFrameOverhead is the non-payload byte count of an encoded Segment
// frame: the 5-byte frame header plus the 16-byte fixed body head.
const segmentFrameOverhead = 5 + 16

// AppendSegmentFrame appends one complete Segment frame — header, body head
// and the segment's size-byte payload, generated in place — to dst and
// returns the extended slice. The bytes are exactly those WriteFrame(w,
// Segment{VideoID: videoID, Segment: segment, Slot: slot, Payload:
// SegmentPayload(videoID, segment, size)}) would write.
func AppendSegmentFrame(dst []byte, videoID, segment uint32, slot uint64, size uint32) []byte {
	dst = append(dst, byte(TypeSegment))
	dst = binary.BigEndian.AppendUint32(dst, 16+size)
	dst = binary.BigEndian.AppendUint32(dst, videoID)
	dst = binary.BigEndian.AppendUint32(dst, segment)
	dst = binary.BigEndian.AppendUint64(dst, slot)
	return AppendSegmentPayload(dst, videoID, segment, size)
}

// AppendSlotEndFrame appends one complete SlotEnd frame to dst and returns
// the extended slice, byte-identical to WriteFrame(w, SlotEnd{Slot: slot}).
func AppendSlotEndFrame(dst []byte, slot uint64) []byte {
	dst = append(dst, byte(TypeSlotEnd))
	dst = binary.BigEndian.AppendUint32(dst, 8)
	return binary.BigEndian.AppendUint64(dst, slot)
}

// AppendSegmentPayload appends the deterministic payload bytes of one
// (video, segment) pair to dst and returns the extended slice — the same
// bytes SegmentPayload returns, without the allocation when dst has room.
//
// The bytes are the low bytes of successive xorshift64 states. A payload of
// two chunks or more is produced a chunk at a time from payloadTables; a
// shorter one, and any sub-chunk tail, steps the generator byte by byte, so
// a catalogue of short segments never builds or reads the tables.
func AppendSegmentPayload(dst []byte, videoID, segment, size uint32) []byte {
	state := (uint64(videoID)<<32 ^ uint64(segment)) * 0x9E3779B97F4A7C15
	if state == 0 {
		state = 0x9E3779B97F4A7C15
	}
	if size >= 2*payloadChunk {
		n, whole := len(dst), int(size&^(payloadChunk-1))
		dst = slices.Grow(dst, int(size))[:n+whole]
		state = payloadTables().fill(dst[n:], state)
		size %= payloadChunk
	}
	dst, _ = xorshiftAppend(dst, state, size)
	return dst
}

// xorshiftAppend appends one output byte per xorshift64 step, n of them, to
// dst and returns the extended slice and the final state.
func xorshiftAppend(dst []byte, state uint64, n uint32) ([]byte, uint64) {
	for i := uint32(0); i < n; i++ {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		dst = append(dst, byte(state))
	}
	return dst, state
}

// payloadChunk is how many payload bytes one table lookup round produces.
const payloadChunk = 64

// payloadKernel holds the chunk tables. The xorshift64 step is linear over
// GF(2)^64, and so is taking a state's low byte, so both the next
// payloadChunk output bytes of a state and the state payloadChunk steps on
// are the XOR of what each of the state's eight bytes contributes alone:
// out[k][v] and jump[k][v] are those contributions for byte k holding v.
// out rows are the chunk as eight little-endian words. 8×256×(64+8) B =
// 144 KiB.
type payloadKernel struct {
	out  [8][256][payloadChunk / 8]uint64
	jump [8][256]uint64
}

// payloadTables builds the kernel once, on first use; payloads under two
// chunks never call it.
var payloadTables = sync.OnceValue(newPayloadKernel)

// newPayloadKernel builds the tables byte position by byte position: first
// the eight basis rows, each the contribution of a state holding one set
// bit, then every other row as the row of v less its lowest set bit XOR that
// bit's basis row.
func newPayloadKernel() *payloadKernel {
	t := new(payloadKernel)
	var chunk [payloadChunk]byte
	for k := range t.out {
		out, jump := &t.out[k], &t.jump[k]
		for bit := 0; bit < 8; bit++ {
			row := &out[1<<bit]
			_, jump[1<<bit] = xorshiftAppend(chunk[:0], uint64(1)<<(8*k+bit), payloadChunk)
			for j := range row {
				row[j] = binary.LittleEndian.Uint64(chunk[8*j:])
			}
		}
		for v := 3; v < len(out); v++ {
			lo := v & -v
			row, rest, basis := &out[v], &out[v&^lo], &out[lo]
			for j := range row {
				row[j] = rest[j] ^ basis[j]
			}
			jump[v] = jump[v&^lo] ^ jump[lo]
		}
	}
	return t
}

// fill writes the whole chunks of b, starting from state s, and returns the
// state after them; b's sub-chunk tail is left for the caller. The chunk is
// written out by hand: the compiler keeps neither an accumulator array nor a
// loop over the state's bytes in registers, and either runs the kernel at
// under half this speed.
func (t *payloadKernel) fill(b []byte, s uint64) uint64 {
	for ; len(b) >= payloadChunk; b = b[payloadChunk:] {
		b0, b1, b2, b3 := byte(s), byte(s>>8), byte(s>>16), byte(s>>24)
		b4, b5, b6, b7 := byte(s>>32), byte(s>>40), byte(s>>48), byte(s>>56)
		r0, r1, r2, r3 := &t.out[0][b0], &t.out[1][b1], &t.out[2][b2], &t.out[3][b3]
		r4, r5, r6, r7 := &t.out[4][b4], &t.out[5][b5], &t.out[6][b6], &t.out[7][b7]
		s = t.jump[0][b0] ^ t.jump[1][b1] ^ t.jump[2][b2] ^ t.jump[3][b3] ^
			t.jump[4][b4] ^ t.jump[5][b5] ^ t.jump[6][b6] ^ t.jump[7][b7]
		c := b[:payloadChunk]
		binary.LittleEndian.PutUint64(c[0:], r0[0]^r1[0]^r2[0]^r3[0]^r4[0]^r5[0]^r6[0]^r7[0])
		binary.LittleEndian.PutUint64(c[8:], r0[1]^r1[1]^r2[1]^r3[1]^r4[1]^r5[1]^r6[1]^r7[1])
		binary.LittleEndian.PutUint64(c[16:], r0[2]^r1[2]^r2[2]^r3[2]^r4[2]^r5[2]^r6[2]^r7[2])
		binary.LittleEndian.PutUint64(c[24:], r0[3]^r1[3]^r2[3]^r3[3]^r4[3]^r5[3]^r6[3]^r7[3])
		binary.LittleEndian.PutUint64(c[32:], r0[4]^r1[4]^r2[4]^r3[4]^r4[4]^r5[4]^r6[4]^r7[4])
		binary.LittleEndian.PutUint64(c[40:], r0[5]^r1[5]^r2[5]^r3[5]^r4[5]^r5[5]^r6[5]^r7[5])
		binary.LittleEndian.PutUint64(c[48:], r0[6]^r1[6]^r2[6]^r3[6]^r4[6]^r5[6]^r6[6]^r7[6])
		binary.LittleEndian.PutUint64(c[56:], r0[7]^r1[7]^r2[7]^r3[7]^r4[7]^r5[7]^r6[7]^r7[7])
	}
	return s
}
