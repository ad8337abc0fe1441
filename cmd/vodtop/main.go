// Command vodtop is a terminal dashboard for a running vodserver. It polls
// the /statusz snapshot endpoint and renders the admission pipeline the way
// an operator wants to read it: per-stage latency quantiles, per-video rows,
// the admit-to-first-byte SLO burn rate and the station clock's lag.
//
// Usage:
//
//	vodserver -stats-addr 127.0.0.1:4900 &
//	vodtop -addr 127.0.0.1:4900
//
// or, for scripting and snapshots in CI logs:
//
//	vodtop -addr 127.0.0.1:4900 -once
//
// In -once mode the exit status doubles as a health probe: 0 when no alert
// rule is firing, 2 when at least one is, so shell gates can read the
// dashboard without parsing it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"vodcast/internal/conntrack"
	"vodcast/internal/obs"
	"vodcast/internal/obs/history"
	"vodcast/internal/vodserver"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:4900", "vodserver stats address (the -stats-addr it was started with)")
		interval = flag.Duration("interval", time.Second, "refresh interval")
		once     = flag.Bool("once", false, "render a single frame and exit (for scripting)")
	)
	flag.Parse()
	firing, err := run(os.Stdout, *addr, *interval, *once)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vodtop:", err)
		os.Exit(1)
	}
	if *once && firing {
		os.Exit(2)
	}
}

// run renders frames until the loop is interrupted, or exactly one frame in
// once mode. The firing result reports whether the last rendered frame had
// any alert rule in the firing state (the -once exit-code contract).
func run(w io.Writer, addr string, interval time.Duration, once bool) (firing bool, err error) {
	if interval <= 0 {
		return false, fmt.Errorf("interval %v must be positive", interval)
	}
	client := &http.Client{Timeout: 5 * time.Second}
	for {
		snap, err := fetch(client, addr)
		if err != nil {
			return false, err
		}
		// The trend and connection panes are best-effort: a server that
		// fails /queryz or /connz (an older one without them answers 404)
		// renders the dashboard without them.
		pane := fetchHistory(client, addr)
		conns := fetchConns(client, addr)
		if !once {
			// Clear the screen and home the cursor between frames.
			fmt.Fprint(w, "\x1b[2J\x1b[H")
		}
		render(w, addr, snap)
		if pane != nil {
			renderHistory(w, pane)
		}
		if conns != nil {
			renderConns(w, conns)
		}
		firing = false
		for _, a := range snap.Alerts {
			if a.State == obs.StateFiring {
				firing = true
			}
		}
		if once {
			return firing, nil
		}
		time.Sleep(interval)
	}
}

// fetch pulls one /statusz snapshot from the server.
func fetch(client *http.Client, addr string) (vodserver.StatusSnapshot, error) {
	var snap vodserver.StatusSnapshot
	resp, err := client.Get("http://" + addr + "/statusz")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("GET /statusz: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, fmt.Errorf("decode /statusz: %w", err)
	}
	return snap, nil
}

// render writes one dashboard frame. It is pure so tests can drive it with
// a synthetic snapshot.
func render(w io.Writer, addr string, snap vodserver.StatusSnapshot) {
	st := snap.Station
	fmt.Fprintf(w, "vodtop — %s  up %s\n", addr, fmtDur(snap.UptimeSeconds))
	fmt.Fprintf(w, "requests=%d instances=%d broadcast=%.1fMB subscribers=%d dropped=%d\n",
		snap.Stats.Requests, snap.Stats.Instances,
		float64(snap.Stats.BroadcastBytes)/1e6, snap.Stats.ActiveSubscribers, snap.Stats.Dropped)

	clock := st.Clock
	state := "stopped"
	if clock.Running {
		state = "running"
	}
	fmt.Fprintf(w, "clock: %s  slot=%s  ticks=%d  active=%d/%d videos  lag p50=%s p99=%s max=%s\n",
		state, fmtDur(clock.IntervalSeconds), clock.Ticks, st.Active, st.Videos,
		fmtDur(clock.Lag.P50), fmtDur(clock.Lag.P99), fmtDur(clock.Lag.Max))
	fmt.Fprintf(w, "spans: %d roots, %d sampled (1 in %d), %d finished\n",
		snap.Spans.Roots, snap.Spans.Sampled, snap.Spans.SampleEvery, snap.Spans.Finished)

	fb := snap.FirstByte
	fmt.Fprintf(w, "SLO  : first-byte p50=%s p95=%s p99=%s  target<=%s @ %.1f%%  good=%d bad=%d  burn=%.2f\n",
		fmtDur(fb.P50), fmtDur(fb.P95), fmtDur(fb.P99),
		fmtDur(fb.SLOThreshold), fb.SLOObjective*100, fb.Good, fb.Bad, fb.BurnRate)

	// The client's side of the contract: what the reported sessions actually
	// experienced, in slots.
	q := snap.QoE
	fmt.Fprintf(w, "QoE  : reports=%d  startup p50=%.0f p95=%.0f slots  slack mean=%.1f slots  miss/report mean=%.2f\n",
		q.Reports, q.Startup.P50, q.Startup.P95, q.Slack.Mean, q.MissRate.Mean)

	fmt.Fprintln(w)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "STAGE\tCOUNT\tP50\tP95\tP99\tMAX")
	for _, row := range stageRows(snap) {
		win := row.win
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\t%s\n",
			row.name, win.Count, fmtDur(win.P50), fmtDur(win.P95), fmtDur(win.P99), fmtDur(win.Max))
	}
	tw.Flush()

	if len(st.PerVideo) > 0 {
		fmt.Fprintln(w)
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "VIDEO\tNAME\tSLOT\tREQUESTS\tINSTANCES")
		for _, row := range st.PerVideo {
			fmt.Fprintf(tw, "%d\t%s\t%d\t%d\t%d\n",
				row.Video, row.Name, row.Slot, row.Requests, row.Instances)
		}
		tw.Flush()
	}

	if len(snap.Alerts) > 0 {
		fmt.Fprintln(w)
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "ALERT\tSEVERITY\tSTATE\tVALUE\tTHRESHOLD\tFIRED")
		for _, a := range snap.Alerts {
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s %.4g\t%d\n",
				a.Name, a.Severity, renderState(a.State), fmtAlertValue(a.Value),
				a.Op, a.Threshold, a.Fired)
		}
		tw.Flush()
	}
}

// renderState upper-cases the firing state so an operator scanning the pane
// cannot miss it.
func renderState(s obs.AlertState) string {
	if s == obs.StateFiring {
		return "FIRING"
	}
	return string(s)
}

// fmtAlertValue renders a rule's observed value; NaN means the rule has not
// seen data yet.
func fmtAlertValue(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.4g", v)
}

// stageRow is one line of the latency table.
type stageRow struct {
	name string
	win  obs.WindowSnapshot
}

// stageRows orders the pipeline stages the way a request traverses them:
// the station's internal stages first (sorted for stability), then the
// server-side fan-out and first-byte windows.
func stageRows(snap vodserver.StatusSnapshot) []stageRow {
	names := make([]string, 0, len(snap.Station.Stages))
	for name := range snap.Station.Stages {
		names = append(names, name)
	}
	sort.Strings(names)
	rows := make([]stageRow, 0, len(names)+2)
	for _, name := range names {
		rows = append(rows, stageRow{name: name, win: snap.Station.Stages[name]})
	}
	rows = append(rows,
		stageRow{name: "fanout", win: snap.Fanout},
		stageRow{name: "first_byte", win: snap.FirstByte},
	)
	return rows
}

// historyPane holds the raw /queryz ranges behind the trend pane: the
// startup-delay summary's p99, the cumulative request counter (turned into a
// rate client-side) and the firing-alert count.
type historyPane struct {
	startup  []history.Point
	requests []history.Point
	firing   []history.Point
}

// queryzRange mirrors the /queryz range-response wire format; vodtop only
// needs the points.
type queryzRange struct {
	Points []history.Point `json:"points"`
}

// fetchHistory pulls the trend series over /queryz, relying on the server's
// default one-minute window. Any failure — an older server without the
// endpoint (404), a transport error — returns nil and the pane is skipped for
// the frame.
func fetchHistory(client *http.Client, addr string) *historyPane {
	pane := &historyPane{}
	for _, s := range []struct {
		name string
		dst  *[]history.Point
	}{
		{`client_startup_slots{quantile="0.99"}`, &pane.startup},
		{"vod_requests_total", &pane.requests},
		{"vod_alerts_firing", &pane.firing},
	} {
		pts, ok := fetchSeries(client, addr, s.name)
		if !ok {
			return nil
		}
		*s.dst = pts
	}
	return pane
}

// fetchSeries runs one /queryz range query; ok is false on any error.
func fetchSeries(client *http.Client, addr, series string) ([]history.Point, bool) {
	resp, err := client.Get("http://" + addr + "/queryz?series=" + url.QueryEscape(series))
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, false
	}
	var qr queryzRange
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		return nil, false
	}
	return qr.Points, true
}

// sparkWidth is the trend pane's column budget per sparkline.
const sparkWidth = 30

// renderHistory writes the trend pane under the dashboard. Pure, like
// render, so tests can drive it with synthetic ranges.
func renderHistory(w io.Writer, pane *historyPane) {
	admits := counterRate(pane.requests)
	fmt.Fprintln(w)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "TREND (1m)\tSPARK\tLAST")
	fmt.Fprintf(tw, "startup p99\t%s\t%s slots\n",
		sparkline(gaugeValues(pane.startup), sparkWidth), lastValue(gaugeValues(pane.startup), "%.0f"))
	fmt.Fprintf(tw, "admits/sec\t%s\t%s\n", sparkline(admits, sparkWidth), lastValue(admits, "%.1f"))
	fmt.Fprintf(tw, "alerts firing\t%s\t%s\n",
		sparkline(gaugeValues(pane.firing), sparkWidth), lastValue(gaugeValues(pane.firing), "%.0f"))
	tw.Flush()
}

// sparkRunes are the eight block heights a sparkline cell can take.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline renders vs as a unicode trend at most width cells wide, scaled
// to the window's own min..max. Wider inputs are downsampled by max so
// spikes survive; a flat series renders at the lowest block.
func sparkline(vs []float64, width int) string {
	if len(vs) == 0 || width <= 0 {
		return ""
	}
	if len(vs) > width {
		buckets := make([]float64, width)
		for i := range buckets {
			buckets[i] = math.Inf(-1)
		}
		for i, v := range vs {
			if b := i * width / len(vs); v > buckets[b] {
				buckets[b] = v
			}
		}
		vs = buckets
	}
	lo, hi := vs[0], vs[0]
	for _, v := range vs {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	var sb strings.Builder
	for _, v := range vs {
		idx := 0
		if hi > lo {
			idx = int((v-lo)/(hi-lo)*float64(len(sparkRunes)-1) + 0.5)
		}
		sb.WriteRune(sparkRunes[idx])
	}
	return sb.String()
}

// counterRate turns cumulative counter points into per-second rates between
// consecutive samples. A counter reset (negative delta) clamps to zero
// rather than rendering a bogus spike.
func counterRate(pts []history.Point) []float64 {
	if len(pts) < 2 {
		return nil
	}
	out := make([]float64, 0, len(pts)-1)
	for i := 1; i < len(pts); i++ {
		dt := pts[i].Unix - pts[i-1].Unix
		dv := pts[i].Value - pts[i-1].Value
		if dt <= 0 || dv < 0 {
			out = append(out, 0)
			continue
		}
		out = append(out, dv/dt)
	}
	return out
}

// gaugeValues strips timestamps (and any NaN a young window reported) from
// a gauge range for sparkline rendering.
func gaugeValues(pts []history.Point) []float64 {
	out := make([]float64, 0, len(pts))
	for _, p := range pts {
		if math.IsNaN(p.Value) {
			continue
		}
		out = append(out, p.Value)
	}
	return out
}

// lastValue renders the newest value with format, or a dash when the series
// is still empty.
func lastValue(vs []float64, format string) string {
	if len(vs) == 0 {
		return "-"
	}
	return fmt.Sprintf(format, vs[len(vs)-1])
}

// fetchConns pulls the /connz transport-telemetry summary. Best-effort like
// the trend pane: an older server without the endpoint (404) or a transport
// error skips the pane for the frame.
func fetchConns(client *http.Client, addr string) *conntrack.Summary {
	resp, err := client.Get("http://" + addr + "/connz")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	var sum conntrack.Summary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		return nil
	}
	return &sum
}

// connRows caps the per-connection table at the worst offenders; the full
// inventory stays one curl of /connz away.
const connRows = 8

// connSeverity ranks connection states worst-first for the CONN table.
var connSeverity = map[string]int{
	"stalled":              0,
	"path_limited":         1,
	"receiver_limited":     2,
	"sender_backpressured": 3,
	"healthy":              4,
}

// renderConns writes the transport-telemetry pane: the state histogram on
// one line, then the worst tracked connections with the evidence behind
// each verdict. Pure, like render, so tests drive it with a synthetic
// summary.
func renderConns(w io.Writer, sum *conntrack.Summary) {
	fmt.Fprintln(w)
	fmt.Fprintf(w, "CONN : tracked=%d stalled_ratio=%.2f  healthy=%d recv_limited=%d path_limited=%d backpressured=%d stalled=%d\n",
		sum.Tracked, sum.StalledRatio,
		sum.States["healthy"], sum.States["receiver_limited"], sum.States["path_limited"],
		sum.States["sender_backpressured"], sum.States["stalled"])
	if len(sum.Conns) == 0 {
		return
	}
	rows := make([]conntrack.ConnSnapshot, len(sum.Conns))
	copy(rows, sum.Conns)
	sort.SliceStable(rows, func(i, j int) bool {
		if si, sj := connSeverity[rows[i].State], connSeverity[rows[j].State]; si != sj {
			return si < sj
		}
		return rows[i].RingDepth > rows[j].RingDepth
	})
	if len(rows) > connRows {
		rows = rows[:connRows]
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "CONN\tREMOTE\tSTATE\tAGE\tRTT\tRETRANS\tRING\tKB/S")
	for _, c := range rows {
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%s\t%d\t%d/%d\t%.1f\n",
			c.ID, c.Remote, c.State, fmtDur(c.StateAgeSeconds),
			fmtDur(c.RTTMillis/1000), c.Retrans, c.RingDepth, c.RingCap, c.BytesPerSec/1024)
	}
	tw.Flush()
}

// fmtDur renders a duration given in seconds with a unit that keeps three
// significant digits readable (µs under a millisecond, ms under a second).
func fmtDur(seconds float64) string {
	d := time.Duration(seconds * float64(time.Second))
	switch {
	case d <= 0:
		return "0"
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}
