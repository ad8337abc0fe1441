package vodserver

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"vodcast/internal/obs"
	"vodcast/internal/wire"
)

// This file is the server half of the client QoE loop: it reads the
// wire.ClientReport a session sends at its end, folds it into the
// client_* metric families and rolling windows /statusz serves, synthesizes
// the client's side of the admit trace into the span stream, and arms the
// alert rules that watch the folded signals. The server-side windows
// deliberately track per-REPORT aggregates (mean slack, misses per report)
// rather than per-segment samples: a report is one customer's session, which
// is the granularity operators alert on.

// missRateThreshold is the windowed mean of deadline misses per client report
// above which the client_deadline_miss_rate alert trips.
const missRateThreshold = 0.5

// stalledRatio is the fraction of tracked connections classified stalled
// above which the conn_stalled_ratio alert trips (and, with a FlightDir
// armed, captures a diagnostic bundle carrying conns.json).
const stalledRatio = 0.5

// slipWindow is how far back the station_clock_skipped_ticks rule looks for
// a skipped grid point.
const slipWindow = time.Minute

// armAlerts registers the built-in rules. Called once from serve, which
// launches the evaluation ticker afterwards.
func (s *Server) armAlerts() error {
	// The miss alert watches the windowed mean of misses-per-report, not
	// the lifetime counter: counters never come back down, the window does,
	// so the rule can resolve once healthy sessions roll the bad ones out.
	miss := obs.WindowMeanRule("client_deadline_miss_rate", s.qoeMissRate,
		missRateThreshold, s.cfg.AlertFor)
	miss.Severity = "critical"
	miss.Help = fmt.Sprintf(
		"clients are missing delivery deadlines (windowed mean misses/report > %g)", missRateThreshold)
	if err := s.alerts.Add(miss); err != nil {
		return err
	}
	burn := obs.BurnRateRule("first_byte_slo_burn", s.firstByte, 2.0, s.cfg.AlertFor)
	burn.Help = "admit-to-first-byte SLO error budget burning at more than 2x"
	if err := s.alerts.Add(burn); err != nil {
		return err
	}
	// The stall alert watches the transport classifier's aggregate: the
	// fraction of tracked connections whose published state is stalled. The
	// ratio resolves on its own as stalled subscribers are dropped or
	// recover, so the rule walks firing → resolved without operator action.
	stalled := obs.AlertRule{
		Name:     "conn_stalled_ratio",
		Severity: "critical",
		Help: fmt.Sprintf(
			"more than %g of tracked subscriber connections are stalled (backlog with no forward progress)", stalledRatio),
		Value:     s.ct.StalledRatio,
		Threshold: stalledRatio,
		For:       s.cfg.AlertFor,
	}
	if err := s.alerts.Add(stalled); err != nil {
		return err
	}
	// The slip alert watches the clock's skipped grid points: each is a
	// segment every active session got late. The rule reads how many the
	// counter gained over the last slipWindow of evaluations, so a skip
	// breaches it for one window: it fires after the AlertFor hold, as the
	// other rules do, and resolves once a window passes without a skip.
	skipped := s.reg.Counter("station_clock_skipped_ticks_total", "")
	slip := obs.AlertRule{
		Name:     "station_clock_skipped_ticks",
		Severity: "critical",
		Help: fmt.Sprintf(
			"the slot clock skipped grid points in the last %v: every active session got a segment late", slipWindow),
		Value: recentIncrease(skipped.Value, max(int(slipWindow/s.telemetryInterval), 1)),
		For:   s.cfg.AlertFor,
	}
	if err := s.alerts.Add(slip); err != nil {
		return err
	}
	if s.cfg.ReportStaleAfter > 0 {
		stale := obs.StalenessRule("client_reports_stale",
			func() float64 { return s.mReports.Value() }, s.cfg.ReportStaleAfter)
		stale.Help = fmt.Sprintf("no client report for %v", s.cfg.ReportStaleAfter)
		if err := s.alerts.Add(stale); err != nil {
			return err
		}
	}
	return nil
}

// recentIncrease returns a rule Value reading how much counter rose over
// the last evals calls, which the engine makes one per evaluation. The
// counter starts at 0, as do the readings before the first call.
func recentIncrease(counter func() float64, evals int) func() float64 {
	ring, next := make([]float64, evals), 0
	return func() float64 {
		v := counter()
		rise := v - ring[next]
		ring[next], next = v, (next+1)%evals
		return rise
	}
}

// readReport collects the end-of-session ClientReport a subscriber owes,
// through the session's buffered reader br (the report may already be in
// it). The read is bounded: a client that never reports just times out and
// costs nothing. A report must name rec's video and echo the trace ids of
// info, the session's ScheduleInfo; any other is discarded, so no client
// can graft spans onto another session's admit trace.
func (s *Server) readReport(conn net.Conn, br *bufio.Reader, rec *videoRecord, info wire.ScheduleInfo) {
	if err := conn.SetReadDeadline(time.Now().Add(s.readTimeout())); err != nil {
		return
	}
	msg, err := wire.ReadFrame(br)
	if err != nil {
		return
	}
	rep, ok := msg.(wire.ClientReport)
	if !ok || rep.VideoID != rec.id || rep.TraceID != info.TraceID || rep.SpanID != info.SpanID {
		return
	}
	s.ingestReport(rec, rep)
}

// ingestReport folds one client report for rec's video into the metric
// families, the QoE windows, and — when the session carried trace
// identifiers — the span ring, where the client's playback becomes children
// of the server's admit span.
func (s *Server) ingestReport(rec *videoRecord, rep wire.ClientReport) {
	s.mReports.Inc()
	s.qoeStartup.Observe(float64(rep.StartupSlots))
	if rep.SegmentsReceived > 0 {
		s.qoeSlack.Observe(float64(rep.SumSlackSlots) / float64(rep.SegmentsReceived))
	}
	s.qoeMissRate.Observe(float64(rep.DeadlineMisses))
	rec.miss.Add(float64(rep.DeadlineMisses))
	rec.rebuffer.Add(float64(rep.Rebuffers))

	if rep.SpanID == 0 {
		return
	}
	// Synthesize the client's side of the trace. The report arrives after
	// the fact, so the spans are back-dated on the trace clock: the session
	// span covers SessionSlots slots ending now, and the startup span is
	// its prefix up to the first needed segment.
	slotSec := s.cfg.SlotDuration.Seconds()
	end := s.spans.Now()
	sessDur := float64(rep.SessionSlots) * slotSec
	session := s.spans.RecordChild(rep.SpanID, "client_session",
		end-sessDur, sessDur, rep.VideoID, map[string]string{
			"misses":    fmt.Sprint(rep.DeadlineMisses),
			"rebuffers": fmt.Sprint(rep.Rebuffers),
			"received":  fmt.Sprintf("%d/%d", rep.SegmentsReceived, rep.SegmentsNeeded),
			"min_slack": fmt.Sprint(rep.MinSlackSlots),
		})
	s.spans.RecordChild(session, "client_startup",
		end-sessDur, float64(rep.StartupSlots)*slotSec, rep.VideoID, nil)
}

// QoESnapshot is the client-side view of the pipeline as reported back by
// the set-top boxes, served inside /statusz.
type QoESnapshot struct {
	// Reports counts sessions that reported back.
	Reports uint64 `json:"reports"`
	// Startup is the startup-delay window (slots); Slack the per-report
	// mean slack-to-deadline window (slots, negative = late); MissRate the
	// misses-per-report window the miss alert watches.
	Startup  obs.WindowSnapshot `json:"startup_slots"`
	Slack    obs.WindowSnapshot `json:"slack_slots"`
	MissRate obs.WindowSnapshot `json:"miss_rate"`
}

// QoE assembles the client-side telemetry snapshot.
func (s *Server) QoE() QoESnapshot {
	return QoESnapshot{
		Reports:  uint64(s.mReports.Value()),
		Startup:  s.qoeStartup.Snapshot(),
		Slack:    s.qoeSlack.Snapshot(),
		MissRate: s.qoeMissRate.Snapshot(),
	}
}
