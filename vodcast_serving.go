package vodcast

// This file groups the serving system: the multi-video catalogue simulation,
// the networked server/client pair, and disk provisioning for the resulting
// schedules. The station engine, the telemetry stack and the wire codec are
// internal packages with no re-export here: cmd/vodserver and its HTTP
// endpoints are their public surface.

import (
	"vodcast/internal/server"
	"vodcast/internal/storage"
	"vodcast/internal/vodclient"
	"vodcast/internal/vodserver"
	"vodcast/internal/wire"
)

// ---- Multi-video catalogue simulation ----

// ServerConfig parameterizes a multi-video DHB server simulation.
type ServerConfig = server.Config

// VideoSpec describes one catalogue entry of a server.
type VideoSpec = server.VideoSpec

// Server is a configured multi-video simulation: a thin deterministic
// driver over the same Station engine the networked server uses.
type Server = server.Server

// NewServer validates cfg and prepares the broadcast engine.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// ---- The networked system ----

// ServeConfig parameterizes the networked DHB video server.
type ServeConfig = vodserver.Config

// ServeVideo describes one servable video of the networked server.
type ServeVideo = vodserver.VideoConfig

// VODServer is a running networked DHB server.
type VODServer = vodserver.Server

// StartServer binds and runs the networked DHB server.
func StartServer(cfg ServeConfig) (*VODServer, error) { return vodserver.Start(cfg) }

// FetchResult describes one completed client session, including its QoE
// telemetry (startup delay, deadline slack, misses and rebuffers).
type FetchResult = vodclient.Result

// FetchOptions parameterizes a client session: video, resume point, timeout,
// and the v2 behaviours (trace join, end-of-session report, strict
// deadlines).
type FetchOptions = vodclient.FetchOptions

// FetchWith requests a video with explicit options; the returned result
// carries the session's QoE telemetry.
func FetchWith(addr string, opts FetchOptions) (FetchResult, error) {
	return vodclient.FetchWith(addr, opts)
}

// SegmentPayloadForBench exposes the deterministic payload generator of the
// data plane for benchmarking and external verification tools.
func SegmentPayloadForBench(videoID, segment, size uint32) []byte {
	return wire.SegmentPayload(videoID, segment, size)
}

// ---- Storage provisioning ----

// Disk models one drive of the server's striped array.
type Disk = storage.Disk

// DiskSchedule is a recorded transmission plan for disk evaluation.
type DiskSchedule = storage.Schedule

// DiskRead identifies one segment read.
type DiskRead = storage.Read

// DiskReport describes how a schedule runs on a striped array.
type DiskReport = storage.Report

// CommodityDisk2001 returns era-typical drive parameters.
func CommodityDisk2001() Disk { return storage.CommodityDisk2001() }

// DisksNeeded reports the smallest striped array serving the schedule.
func DisksNeeded(d Disk, s DiskSchedule, maxDisks int) (int, error) {
	return storage.DisksNeeded(d, s, maxDisks)
}

// EvaluateDisks runs a schedule on an array of the given size.
func EvaluateDisks(d Disk, s DiskSchedule, disks int) (DiskReport, error) {
	return storage.Evaluate(d, s, disks)
}
