package vodcast

// This file groups the serving system: the multi-video station engine, the catalogue simulation built on it, the networked server/client
// pair, and disk provisioning for the resulting schedules.

import (
	"io"

	"vodcast/internal/conntrack"
	"vodcast/internal/obs"
	"vodcast/internal/obs/history"
	"vodcast/internal/server"
	"vodcast/internal/station"
	"vodcast/internal/storage"
	"vodcast/internal/vodclient"
	"vodcast/internal/vodserver"
	"vodcast/internal/wire"
)

// ---- The multi-video broadcast station ----

// Station is the concurrency-safe multi-video broadcast engine: one DHB
// scheduler per catalogue video, each behind its own lock so admissions for
// different videos proceed in parallel, with one clock advancing every video
// once per slot over a contiguous span partition of the catalogue.
type Station = station.Station

// StationConfig parameterizes a station.
type StationConfig = station.Config

// StationVideo describes one catalogue video of a station.
type StationVideo = station.VideoConfig

// NewStation validates cfg and builds the broadcast engine.
func NewStation(cfg StationConfig) (*Station, error) { return station.New(cfg) }

// Sentinel errors of the station's admission and lifecycle paths.
var (
	ErrUnknownVideo  = station.ErrUnknownVideo
	ErrStationClosed = station.ErrClosed
)

// ---- Observability ----

// MetricsRegistry collects counters, gauges and histograms and renders them
// in the Prometheus text exposition format. Pass one to StationConfig or
// ServerConfig to instrument the admission pipeline.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry builds an empty registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// PipelineSpanTracer samples admission span trees and exports them as JSONL.
type PipelineSpanTracer = obs.SpanTracer

// PipelineSpan is one timed region of the admission pipeline.
type PipelineSpan = obs.Span

// SpanRecord is the exported form of one finished span.
type SpanRecord = obs.SpanRecord

// SpanStats summarizes a tracer's sampling decisions.
type SpanStats = obs.SpanStats

// NewPipelineSpanTracer builds a span tracer keeping 1-in-sampleEvery root
// trees; w may be nil to keep spans only in the in-memory ring.
func NewPipelineSpanTracer(w io.Writer, ringSize, sampleEvery int, seed int64) *PipelineSpanTracer {
	return obs.NewSpanTracer(w, ringSize, sampleEvery, seed)
}

// LatencyWindow tracks rolling quantiles and SLO burn over recent
// observations.
type LatencyWindow = obs.Window

// LatencySnapshot is one consistent read of a LatencyWindow.
type LatencySnapshot = obs.WindowSnapshot

// NewLatencyWindow builds a window over the last size observations (0
// selects the default).
func NewLatencyWindow(size int) *LatencyWindow { return obs.NewWindow(size) }

// AlertEngine evaluates declarative alert rules over live metrics on a
// ticker, walking each rule through the inactive/pending/firing/resolved
// state machine the /alertz endpoint and vodtop render.
type AlertEngine = obs.AlertEngine

// AlertRule is one declarative rule: a value source, a comparison against a
// threshold (or a staleness watch), and hold/retention durations.
type AlertRule = obs.AlertRule

// AlertStatus is the exported state of one rule after an evaluation.
type AlertStatus = obs.AlertStatus

// NewAlertEngine builds an empty alert engine; add rules then Start it, or
// hand rules to ServeConfig.AlertRules and let the server drive it.
func NewAlertEngine() *AlertEngine { return obs.NewAlertEngine() }

// AlertTransition is one rule state change delivered to the engine's
// OnTransition hook — the signal the flight recorder captures bundles on.
type AlertTransition = obs.AlertTransition

// MetricSample is one structured sample of a registry walk, the scrape
// format MetricHistory retains.
type MetricSample = obs.Sample

// MetricHistory is the in-process metric TSDB: per-series rings downsampled
// across raw/10s/1m tiers under a hard memory cap, range-queried by the
// /queryz endpoint.
type MetricHistory = history.Store

// MetricHistoryConfig parameterizes a history store (scrape source,
// interval, memory cap).
type MetricHistoryConfig = history.Config

// MetricHistoryStats snapshots a store's retention accounting.
type MetricHistoryStats = history.Stats

// MetricPoint is one retained sample of a series.
type MetricPoint = history.Point

// NewMetricHistory builds a store on cfg; call Start to begin scraping.
// It panics when cfg.Samples is nil.
func NewMetricHistory(cfg MetricHistoryConfig) *MetricHistory { return history.New(cfg) }

// FlightRecorder dumps bounded diagnostic bundles — metric history, span
// ring, status snapshot, alert states, goroutine and heap profiles — on
// alert transitions, SIGQUIT or operator request.
type FlightRecorder = history.Recorder

// FlightRecorderConfig parameterizes a recorder (bundle directory,
// cooldown, retention, capture sources).
type FlightRecorderConfig = history.RecorderConfig

// FlightRecorderStats snapshots a recorder's capture accounting.
type FlightRecorderStats = history.RecorderStats

// NewFlightRecorder builds a recorder writing bundles under cfg.Dir.
func NewFlightRecorder(cfg FlightRecorderConfig) (*FlightRecorder, error) {
	return history.NewRecorder(cfg)
}

// ConnSampler tracks per-subscriber transport telemetry: each sweep reads
// kernel TCP_INFO alongside the fan-out's userspace signals and classifies
// every tracked connection into a stall-attribution state with hysteresis.
// The networked server runs one automatically; embedders drive their own
// with Register/Sweep.
type ConnSampler = conntrack.Sampler

// ConnSamplerConfig parameterizes a sampler (sweep interval, classifier
// thresholds, hysteresis hold, metrics registry).
type ConnSamplerConfig = conntrack.Config

// ConnState is one stall-attribution verdict: healthy, receiver_limited,
// path_limited, sender_backpressured or stalled.
type ConnState = conntrack.State

// ConnSnapshot is one tracked connection's row of the /connz document.
type ConnSnapshot = conntrack.ConnSnapshot

// ConnSummary is the full /connz document (and the flight bundle's
// conns.json): state histogram, aggregate signals, per-connection rows.
type ConnSummary = conntrack.Summary

// NewConnSampler builds a transport-telemetry sampler; call Start for
// periodic sweeps or drive Sweep by hand.
func NewConnSampler(cfg ConnSamplerConfig) *ConnSampler { return conntrack.New(cfg) }

// StationStatus is the station's operator snapshot: per-video rows, stage
// latency windows and clock health.
type StationStatus = station.Status

// StationVideoStatus is one per-video row of the station snapshot.
type StationVideoStatus = station.VideoStatus

// StationClockStatus describes the broadcast clock's tick lag and drift.
type StationClockStatus = station.ClockStatus

// ServeStatus is the networked server's full /statusz snapshot, the
// document cmd/vodtop renders.
type ServeStatus = vodserver.StatusSnapshot

// RegisterRuntimeMetrics adds Go runtime gauges (goroutines, heap, GC) to a
// registry.
func RegisterRuntimeMetrics(r *MetricsRegistry) { obs.RegisterRuntime(r) }

// ---- Multi-video catalogue simulation ----

// ServerConfig parameterizes a multi-video DHB server simulation.
type ServerConfig = server.Config

// VideoSpec describes one catalogue entry of a server.
type VideoSpec = server.VideoSpec

// ServerReport summarizes a server run.
type ServerReport = server.Report

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

// ServeStats is a snapshot of the networked server's counters.
type ServeStats = vodserver.Stats

// VODServer is a running networked DHB server.
type VODServer = vodserver.Server

// StartServer binds and runs the networked DHB server.
func StartServer(cfg ServeConfig) (*VODServer, error) { return vodserver.Start(cfg) }

// NewVBRVideo turns a Section 4 plan into a servable video.
func NewVBRVideo(id uint32, tr *Trace, plan VBRSolution, scale float64) (ServeVideo, error) {
	return vodserver.NewVBRVideo(id, tr, plan, scale)
}

// FetchResult describes one completed client session, including its QoE
// telemetry (startup delay, deadline slack, misses and rebuffers).
type FetchResult = vodclient.Result

// FetchOptions parameterizes a client session: video, resume point, timeout,
// and the v2 behaviours (trace join, end-of-session report, strict
// deadlines).
type FetchOptions = vodclient.FetchOptions

// ClientReport is the wire-level QoE summary a v2 session sends back to the
// server at its end.
type ClientReport = wire.ClientReport

// QoESnapshot is the server's aggregated view of reported client sessions,
// served inside /statusz.
type QoESnapshot = vodserver.QoESnapshot

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
