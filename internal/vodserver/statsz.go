package vodserver

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"vodcast/internal/obs/history"
)

// This file is the server's live introspection surface:
//
//	GET /statusz      full pipeline snapshot: uptime, per-video rows, stage
//	                  latency windows, SLO burn, clock lag and the alert rule
//	                  table (what vodtop renders)
//	GET /metricsz     the obs registry in Prometheus text format
//	                  (?prefix=vod_ filters to one family subset)
//	GET /connz        per-subscriber transport telemetry: classified state,
//	                  RTT, retransmits, ring depth, bytes/sec per connection
//	GET /queryz       retained metric history range queries
//	                  (?series=&from=&to=&step=; no series lists the inventory)
//	GET /debug/flightrecord  force a diagnostic bundle capture
//	GET /debug/pprof  the standard Go profiling endpoints
//
// Each fact is served in one place, and each path names its reader in the
// endpoint census (endpointReaders in statusz_test.go). Finished spans leave
// the process through the -span-trace stream and the flight bundle's
// spans.jsonl, not through an endpoint.
//
// Every handler is routed through guardGET: it answers only its exact path
// (a probe of an unregistered path is a 404 rather than a copy of the
// handler), answers only GET (anything else is a 405 carrying an Allow
// header instead of falling through to a confusing 200), and the response
// always carries an explicit Content-Type.

// guardGET enforces the shared routing contract. It reports whether the
// handler should proceed.
func guardGET(w http.ResponseWriter, r *http.Request, path string) bool {
	if r.URL.Path != path {
		http.NotFound(w, r)
		return false
	}
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return false
	}
	return true
}

// writeJSON renders v indented with the JSON content type.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// statusz serves the full pipeline snapshot: the vodtop wire format.
func (s *Server) statusz(w http.ResponseWriter, r *http.Request) {
	if !guardGET(w, r, "/statusz") {
		return
	}
	writeJSON(w, s.Status())
}

// metricsz renders the registry in the Prometheus text exposition format.
// ?prefix= filters to the families whose name starts with the prefix, so the
// history scraper and external scrapers can fetch a subset cheaply; the full
// dump stays the default.
func (s *Server) metricsz(w http.ResponseWriter, r *http.Request) {
	if !guardGET(w, r, "/metricsz") {
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheusPrefix(w, r.URL.Query().Get("prefix")); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// connz serves the per-subscriber transport telemetry table: every tracked
// connection with its classified state (healthy / receiver_limited /
// path_limited / sender_backpressured / stalled), state age, kernel RTT and
// retransmit counters, ring depth p99 and drain rate — the drill-down an
// operator reaches for when the drop counter moves.
func (s *Server) connz(w http.ResponseWriter, r *http.Request) {
	if !guardGET(w, r, "/connz") {
		return
	}
	writeJSON(w, s.ct.Snapshot())
}

// queryz serves range queries over the retained metric history:
//
//	GET /queryz?series=NAME[&from=T][&to=T][&step=D]
//
// series is the exposition identity (name plus rendered labels, e.g.
// vod_channel_load{video="1"}); from/to accept unix seconds or RFC3339 (to
// defaults to now, from to one minute before to); step is a Go duration
// bucketing the raw points by max (omitted, the raw points themselves). The
// store keeps each series' last 360 scrapes, so a range reaching further back
// returns what it retains. Without series the handler lists every retained
// series.
func (s *Server) queryz(w http.ResponseWriter, r *http.Request) {
	if !guardGET(w, r, "/queryz") {
		return
	}
	q := r.URL.Query()
	series := q.Get("series")
	if series == "" {
		writeJSON(w, struct {
			Series []string      `json:"series"`
			Stats  history.Stats `json:"stats"`
		}{s.history.Series(), s.history.Stats()})
		return
	}
	to := time.Now()
	if raw := q.Get("to"); raw != "" {
		t, err := parseQueryTime(raw)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad to %q", raw), http.StatusBadRequest)
			return
		}
		to = t
	}
	from := to.Add(-time.Minute)
	if raw := q.Get("from"); raw != "" {
		t, err := parseQueryTime(raw)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad from %q", raw), http.StatusBadRequest)
			return
		}
		from = t
	}
	if from.After(to) {
		http.Error(w, fmt.Sprintf("bad range: from %s after to %s",
			from.UTC().Format(time.RFC3339Nano), to.UTC().Format(time.RFC3339Nano)),
			http.StatusBadRequest)
		return
	}
	var step time.Duration
	if raw := q.Get("step"); raw != "" {
		d, err := time.ParseDuration(raw)
		// A zero or negative step is a degenerate bucketing request — the
		// spelled-out "0s" included; raw points are requested by omitting the
		// parameter, not by sending a non-step.
		if err != nil || d <= 0 {
			http.Error(w, fmt.Sprintf("bad step %q", raw), http.StatusBadRequest)
			return
		}
		step = d
	}
	points := s.history.Query(series, from, to, step)
	writeJSON(w, struct {
		Series string          `json:"series"`
		From   float64         `json:"from"`
		To     float64         `json:"to"`
		StepMS int64           `json:"step_ms"`
		Points []history.Point `json:"points"`
	}{series, unixSeconds(from), unixSeconds(to), step.Milliseconds(), points})
}

// parseQueryTime accepts unix seconds (integer or fractional) or RFC3339. A
// unix bound whose nanoseconds are no int64 (NaN, ±Inf, 1e300) is refused.
func parseQueryTime(raw string) (time.Time, error) {
	if sec, err := strconv.ParseFloat(raw, 64); err == nil {
		if ns := sec * float64(time.Second); ns >= math.MinInt64 && ns < math.MaxInt64 {
			return time.Unix(0, int64(ns)), nil
		}
		return time.Time{}, fmt.Errorf("unix time %q out of range", raw)
	}
	return time.Parse(time.RFC3339, raw)
}

// unixSeconds mirrors the history store's Point timestamp encoding.
func unixSeconds(t time.Time) float64 {
	return float64(t.UnixNano()) / float64(time.Second)
}

// flightrecord forces a diagnostic bundle capture and reports where it was
// written. 503 when no flight directory is configured.
func (s *Server) flightrecord(w http.ResponseWriter, r *http.Request) {
	if !guardGET(w, r, "/debug/flightrecord") {
		return
	}
	if s.recorder == nil {
		http.Error(w, "flight recorder disabled", http.StatusServiceUnavailable)
		return
	}
	dir, err := s.FlightRecord("http")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, struct {
		Bundle string                `json:"bundle"`
		Stats  history.RecorderStats `json:"stats"`
	}{dir, s.recorder.Stats()})
}

// statsRoutes is the monitoring endpoint's route table, path to handler.
func (s *Server) statsRoutes() map[string]http.HandlerFunc {
	return map[string]http.HandlerFunc{
		"/statusz":             s.statusz,
		"/metricsz":            s.metricsz,
		"/connz":               s.connz,
		"/queryz":              s.queryz,
		"/debug/flightrecord":  s.flightrecord,
		"/debug/pprof/":        pprof.Index,
		"/debug/pprof/cmdline": pprof.Cmdline,
		"/debug/pprof/profile": pprof.Profile,
		"/debug/pprof/symbol":  pprof.Symbol,
		"/debug/pprof/trace":   pprof.Trace,
	}
}

// statsMux routes the monitoring endpoint's paths; serve serves it on the
// stats listener.
func (s *Server) statsMux() *http.ServeMux {
	mux := http.NewServeMux()
	for path, h := range s.statsRoutes() {
		mux.HandleFunc(path, h)
	}
	return mux
}
