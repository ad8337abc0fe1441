//go:build linux

package conntrack

import (
	"syscall"
	"time"
	"unsafe"
)

// linuxTCPInfo mirrors the leading 192 bytes of the kernel's struct tcp_info
// (include/uapi/linux/tcp.h), through tcpi_sndbuf_limited. The kernel copies
// min(optlen, sizeof(struct tcp_info)) bytes and reports how many it wrote,
// so older kernels simply fill a prefix — fields past the reported length
// stay zero and Extended is left false. Declared field-by-field (not read
// into a Go struct via unsafe casts of kernel-versioned layouts) with the
// offsets fixed by the uapi ABI: the u64 run starting at tcpi_pacing_rate is
// 8-aligned because the preceding u8/u32 block is 104 bytes.
type linuxTCPInfo struct {
	State                  uint8
	CaState                uint8
	Retransmits            uint8
	Probes                 uint8
	Backoff                uint8
	Options                uint8
	WscaleDelRate          uint8 // snd_wscale:4, rcv_wscale:4
	DeliveryRateAppLimited uint8

	Rto     uint32 // offset 8
	Ato     uint32
	SndMss  uint32
	RcvMss  uint32
	Unacked uint32
	Sacked  uint32
	Lost    uint32
	Retrans uint32
	Fackets uint32

	LastDataSent uint32 // offset 44
	LastAckSent  uint32
	LastDataRecv uint32
	LastAckRecv  uint32

	Pmtu        uint32 // offset 60
	RcvSsthresh uint32
	Rtt         uint32
	Rttvar      uint32
	SndSsthresh uint32
	SndCwnd     uint32
	Advmss      uint32
	Reordering  uint32

	RcvRtt   uint32 // offset 92
	RcvSpace uint32

	TotalRetrans uint32 // offset 100

	PacingRate    uint64 // offset 104
	MaxPacingRate uint64
	BytesAcked    uint64 // offset 120
	BytesReceived uint64

	SegsOut      uint32 // offset 136
	SegsIn       uint32
	NotsentBytes uint32 // offset 144
	MinRtt       uint32
	DataSegsIn   uint32
	DataSegsOut  uint32

	DeliveryRate uint64 // offset 160

	BusyTime      uint64 // offset 168, microseconds
	RwndLimited   uint64
	SndbufLimited uint64
}

// tcpInfoExtendedLen is the byte length through tcpi_sndbuf_limited; when
// the kernel reports at least this many bytes the limited-time accounting is
// trustworthy.
const tcpInfoExtendedLen = 192

// readTCPInfo fetches TCP_INFO for socket fd. ok is false when fd is -1
// (no socket) or the getsockopt fails — classification then falls back to
// userspace signals alone.
func readTCPInfo(fd int) (info TCPInfo, ok bool) {
	if fd < 0 {
		return TCPInfo{}, false
	}
	var ti linuxTCPInfo
	got := uint32(unsafe.Sizeof(ti))
	_, _, serr := syscall.Syscall6(syscall.SYS_GETSOCKOPT, uintptr(fd),
		uintptr(syscall.IPPROTO_TCP), uintptr(syscall.TCP_INFO),
		uintptr(unsafe.Pointer(&ti)), uintptr(unsafe.Pointer(&got)), 0)
	if serr != 0 {
		return TCPInfo{}, false
	}
	info = TCPInfo{
		Valid:       true,
		RTT:         time.Duration(ti.Rtt) * time.Microsecond,
		RTTVar:      time.Duration(ti.Rttvar) * time.Microsecond,
		SndCwnd:     ti.SndCwnd,
		SndSsthresh: ti.SndSsthresh,
	}
	// The retransmit, byte and queue counters sit progressively deeper in
	// the struct; gate each tier on the prefix the kernel actually filled.
	if got >= 104 {
		info.TotalRetrans = ti.TotalRetrans
	}
	if got >= 128 {
		info.BytesAcked = ti.BytesAcked
	}
	if got >= 148 {
		info.NotSentBytes = ti.NotsentBytes
	}
	if got >= 168 {
		info.DeliveryRate = ti.DeliveryRate
	}
	if got >= tcpInfoExtendedLen {
		info.Extended = true
		info.BusyTime = time.Duration(ti.BusyTime) * time.Microsecond
		info.RwndLimited = time.Duration(ti.RwndLimited) * time.Microsecond
		info.SndbufLimited = time.Duration(ti.SndbufLimited) * time.Microsecond
	}
	return info, true
}
