//go:build !linux

package conntrack

// readTCPInfo on non-Linux platforms reports no kernel telemetry; the
// classifier runs on the userspace ring/drain signals alone.
func readTCPInfo(int) (TCPInfo, bool) {
	return TCPInfo{}, false
}
