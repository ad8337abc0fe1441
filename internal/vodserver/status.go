package vodserver

// This file is the server's read side: the accessors, the counters snapshot
// and the /statusz document assembled from them.

import (
	"errors"
	"time"

	"vodcast/internal/obs"
	"vodcast/internal/obs/history"
	"vodcast/internal/station"
)

// Stats is a snapshot of server counters.
type Stats struct {
	// Requests counts admitted customers.
	Requests int64
	// Instances counts segment transmissions (the broadcast cost).
	Instances int64
	// BroadcastBytes counts payload bytes transmitted, one count per
	// instance regardless of subscriber fan-out.
	BroadcastBytes int64
	// ActiveSubscribers counts clients currently receiving.
	ActiveSubscribers int
	// Dropped counts subscribers cut by their session write deadline.
	Dropped int64
}

// StatsAddr reports the bound monitoring address, or "" when disabled.
func (s *Server) StatsAddr() string {
	if s.statsLn == nil {
		return ""
	}
	return s.statsLn.Addr().String()
}

// Addr reports the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// StatusSnapshot is the /statusz document: one consistent operator view of
// the whole pipeline, the payload cmd/vodtop renders.
type StatusSnapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Stats are the server counters (requests, instances, bytes,
	// subscribers, drops).
	Stats Stats `json:"stats"`
	// Station is the engine snapshot: per-video rows, stage latency windows,
	// clock health.
	Station station.Status `json:"station"`
	// FirstByte is the rolling admit-to-first-byte latency window with the
	// SLO burn accounting armed on it; Fanout is the per-tick fan-out
	// service time window.
	FirstByte obs.WindowSnapshot `json:"first_byte"`
	Fanout    obs.WindowSnapshot `json:"fanout"`
	// Spans summarizes pipeline span sampling.
	Spans obs.SpanStats `json:"spans"`
	// QoE is the client-side view folded from session reports; Alerts is
	// the rule table the vodtop alert pane renders.
	QoE    QoESnapshot       `json:"qoe"`
	Alerts []obs.AlertStatus `json:"alerts"`
	// Flight is the recorder's capture counters and cooldown, omitted
	// without a flight directory.
	Flight *history.RecorderStats `json:"flight,omitempty"`
}

// Status assembles the operator snapshot served at /statusz.
func (s *Server) Status() StatusSnapshot {
	snap := StatusSnapshot{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Stats:         s.Stats(),
		Station:       s.station.Status(),
		FirstByte:     s.firstByte.Snapshot(),
		Fanout:        s.fanout.Snapshot(),
		Spans:         s.spans.Stats(),
		QoE:           s.QoE(),
		Alerts:        s.alerts.Snapshot(),
	}
	if s.recorder != nil {
		fs := s.recorder.Stats()
		snap.Flight = &fs
	}
	return snap
}

// FlightRecord forces a diagnostic bundle capture (bypassing the alert
// cooldown) and returns the bundle directory. It errors when no FlightDir
// was configured — the SIGQUIT and /debug/flightrecord paths surface that
// instead of silently dropping the operator's request.
func (s *Server) FlightRecord(reason string) (string, error) {
	if s.recorder == nil {
		return "", errors.New("vodserver: flight recorder disabled (no FlightDir)")
	}
	return s.recorder.Force(reason)
}

// Station exposes the broadcast engine (span count, per-video slots).
func (s *Server) Station() *station.Station { return s.station }

// Stats returns a snapshot of the server counters, read from the registry
// families /metricsz exposes (float64 counters are exact below 2^53).
func (s *Server) Stats() Stats {
	st := Stats{
		Requests:          int64(s.mRequests.Value()),
		BroadcastBytes:    int64(s.mBroadcastBytes.Value()),
		ActiveSubscribers: s.activeSubscribers(),
	}
	for _, c := range s.mDroppedBy {
		st.Dropped += int64(c.Value())
	}
	_, st.Instances = s.station.Totals()
	return st
}

// activeSubscribers sums the per-video subscriber sets.
func (s *Server) activeSubscribers() int {
	n := 0
	for i := range s.vlist {
		if r := s.vlist[i].rec.Load(); r != nil {
			n += r.subs.Len()
		}
	}
	return n
}
