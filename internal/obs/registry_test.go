package obs

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// TestPrometheusGolden pins the full exposition of a small registry so the
// format never drifts: HELP/TYPE lines, sorted families, sorted labels,
// escaping, summary expansion. Families and children are
// deliberately registered out of name order — exposition must sort them, not
// echo registration (or map-iteration) order.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("vod_requests_total", "Admitted customer requests.").Add(3)
	r.GaugeWith("vod_channel_load", "Per-video slot load.", Labels{"video": "2"}).Set(0.5)
	r.GaugeWith("vod_channel_load", "Per-video slot load.", Labels{"video": "1"}).Set(4)
	h := r.Window("vod_admit_latency_seconds", "Admission to first byte.", 0)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)
	r.WindowWith("stage_seconds", "Stage latency.", 0, Labels{"stage": "admit"}).Observe(1)

	var buf bytes.Buffer
	if err := r.WritePrometheusPrefix(&buf, ""); err != nil {
		t.Fatal(err)
	}
	want := `# HELP stage_seconds Stage latency.
# TYPE stage_seconds summary
stage_seconds{stage="admit",quantile="0.5"} 1
stage_seconds{stage="admit",quantile="0.95"} 1
stage_seconds{stage="admit",quantile="0.99"} 1
stage_seconds_sum{stage="admit"} 1
stage_seconds_count{stage="admit"} 1
# HELP vod_admit_latency_seconds Admission to first byte.
# TYPE vod_admit_latency_seconds summary
vod_admit_latency_seconds{quantile="0.5"} 0.5
vod_admit_latency_seconds{quantile="0.95"} 2
vod_admit_latency_seconds{quantile="0.99"} 2
vod_admit_latency_seconds_sum 2.55
vod_admit_latency_seconds_count 3
# HELP vod_channel_load Per-video slot load.
# TYPE vod_channel_load gauge
vod_channel_load{video="1"} 4
vod_channel_load{video="2"} 0.5
# HELP vod_requests_total Admitted customer requests.
# TYPE vod_requests_total counter
vod_requests_total 3
`
	if got := buf.String(); got != want {
		t.Fatalf("exposition drift:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestPrometheusDeterministicOrder registers the same families and children
// in two different orders and asserts byte-identical exposition, the
// property scrape diffing depends on.
func TestPrometheusDeterministicOrder(t *testing.T) {
	build := func(order []int) string {
		r := NewRegistry()
		reg := []func(){
			func() { r.Counter("zz_total", "z").Inc() },
			func() { r.GaugeWith("mid_gauge", "m", Labels{"shard": "1"}).Set(1) },
			func() { r.GaugeWith("mid_gauge", "m", Labels{"shard": "0"}).Set(2) },
			func() { r.Counter("aa_total", "a").Add(7) },
		}
		for _, i := range order {
			reg[i]()
		}
		var buf bytes.Buffer
		if err := r.WritePrometheusPrefix(&buf, ""); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a := build([]int{0, 1, 2, 3})
	b := build([]int{3, 2, 1, 0})
	if a != b {
		t.Fatalf("exposition depends on registration order:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
	if !strings.Contains(a, "aa_total 7\n") || strings.Index(a, "aa_total") > strings.Index(a, "zz_total") {
		t.Fatalf("families not name-sorted:\n%s", a)
	}
	if strings.Index(a, `mid_gauge{shard="0"}`) > strings.Index(a, `mid_gauge{shard="1"}`) {
		t.Fatalf("children not label-sorted:\n%s", a)
	}
}

// familyNames lists the registered family names in exposition order.
func familyNames(r *Registry) []string {
	var names []string
	for _, f := range r.sortedFamilies() {
		names = append(names, f.name)
	}
	return names
}

// TestNamesAndValidation covers the family inventory and the lint
// predicates the Makefile's metric-name check relies on.
func TestNamesAndValidation(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_total", "")
	r.GaugeWith("a_gauge", "", nil)
	if got, want := strings.Join(familyNames(r), ","), "a_gauge,z_total"; got != want {
		t.Fatalf("families = %q, want %q", got, want)
	}
	for _, name := range familyNames(r) {
		if !ValidMetricName(name) {
			t.Fatalf("registered name %q fails ValidMetricName", name)
		}
	}
	if ValidMetricName("bad name") || ValidMetricName("") || ValidMetricName("0lead") {
		t.Fatal("ValidMetricName accepted an invalid name")
	}
	if !validName("shard", true) || validName("le:colon", true) {
		t.Fatal("label name verdicts wrong")
	}
}

// TestLabelEscaping exercises the three escaped characters of the text
// format inside label values.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.GaugeWith("g", "", Labels{"path": "a\\b\"c\nd"}).Set(1)
	var buf bytes.Buffer
	if err := r.WritePrometheusPrefix(&buf, ""); err != nil {
		t.Fatal(err)
	}
	want := `g{path="a\\b\"c\nd"} 1`
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("escaped label missing %q in:\n%s", want, buf.String())
	}
}

// parseExposition is a minimal text-format parser for the consistency
// checks: it returns sample name (with labels) -> value.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		name := line[:sp]
		if _, dup := out[name]; dup {
			t.Fatalf("duplicate sample %q", name)
		}
		out[name] = v
	}
	return out
}

// TestSummaryConsistency: a summary's _count and _sum are lifetime totals
// while its quantiles cover only the window — 2 000 observations into a
// size-4 window read _count 2000, the sum of all 2 000, and quantiles over the
// last four.
func TestSummaryConsistency(t *testing.T) {
	r := NewRegistry()
	w := r.Window("load", "Per-slot load.", 4)
	wantSum := 0.0
	for i := 1; i <= 2000; i++ {
		w.Observe(float64(i))
		wantSum += float64(i)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheusPrefix(&buf, ""); err != nil {
		t.Fatal(err)
	}
	samples := parseExposition(t, buf.String())
	if got := samples["load_count"]; got != 2000 {
		t.Fatalf("_count = %v, want 2000", got)
	}
	if got := samples["load_sum"]; got != wantSum {
		t.Fatalf("_sum = %v, want %v", got, wantSum)
	}
	// The window holds 1997..2000: nearest rank puts p50 on 1998.
	for q, want := range map[string]float64{"0.5": 1998, "0.95": 2000, "0.99": 2000} {
		if got := samples[`load{quantile="`+q+`"}`]; got != want {
			t.Fatalf("quantile %s = %v, want %v", q, got, want)
		}
	}
	if len(samples) != 5 {
		t.Fatalf("summary exposed %d lines, want 3 quantiles + _sum + _count: %v", len(samples), samples)
	}
}

// TestRegistryReuseAndConflicts: same name+kind returns the same family;
// kind conflicts and invalid names panic.
func TestRegistryReuseAndConflicts(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c", "help")
	a.Inc()
	r.Counter("c", "help").Inc()
	if got := a.Value(); got != 2 {
		t.Fatalf("re-registered counter diverged: %v", got)
	}

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("kind conflict", func() { r.GaugeWith("c", "", nil) })
	mustPanic("invalid metric name", func() { r.Counter("bad name", "") })
	mustPanic("invalid label name", func() { r.GaugeWith("g", "", Labels{"0bad": "x"}) })
	mustPanic("summary over a counter", func() { r.Window("c", "", 0) })
	if r.Window("w", "", 4) != r.Window("w", "", 8) {
		t.Fatal("re-registered summary returned a second window")
	}
	mustPanic("negative counter", func() { a.Add(-1) })
}

// TestGaugeFunc reads the callback at exposition time.
func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	v := 1.5
	r.GaugeFunc("up", "seconds", func() float64 { return v })
	var buf bytes.Buffer
	if err := r.WritePrometheusPrefix(&buf, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "up 1.5\n") {
		t.Fatalf("gauge func not read:\n%s", buf.String())
	}
	v = 2
	buf.Reset()
	if err := r.WritePrometheusPrefix(&buf, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "up 2\n") {
		t.Fatalf("gauge func stale:\n%s", buf.String())
	}
}

// TestSamples pins the structured scrape walk: same deterministic family and
// child ordering as the text exposition, summaries expanded to their quantile
// and _sum/_count scalar series, GaugeFunc sources read at walk time.
func TestSamples(t *testing.T) {
	r := NewRegistry()
	r.Counter("vod_requests_total", "").Add(3)
	r.GaugeWith("vod_channel_load", "", Labels{"video": "2"}).Set(0.5)
	r.GaugeWith("vod_channel_load", "", Labels{"video": "1"}).Set(4)
	h := r.Window("vod_admit_latency_seconds", "", 0)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)
	up := 12.5
	r.GaugeFunc("vod_uptime_seconds", "", func() float64 { return up })

	want := []Sample{
		{Name: "vod_admit_latency_seconds", Labels: `{quantile="0.5"}`, Value: 0.5},
		{Name: "vod_admit_latency_seconds", Labels: `{quantile="0.95"}`, Value: 2},
		{Name: "vod_admit_latency_seconds", Labels: `{quantile="0.99"}`, Value: 2},
		{Name: "vod_admit_latency_seconds_sum", Labels: "", Value: 2.55},
		{Name: "vod_admit_latency_seconds_count", Labels: "", Value: 3},
		{Name: "vod_channel_load", Labels: `{video="1"}`, Value: 4},
		{Name: "vod_channel_load", Labels: `{video="2"}`, Value: 0.5},
		{Name: "vod_requests_total", Labels: "", Value: 3},
		{Name: "vod_uptime_seconds", Labels: "", Value: 12.5},
	}
	got := r.Samples()
	if len(got) != len(want) {
		t.Fatalf("Samples() = %d samples, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Samples()[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}

	// A GaugeFunc is read at walk time, not registration time.
	up = 99
	got = r.Samples()
	if got[len(got)-1].Value != 99 {
		t.Fatalf("GaugeFunc stale in Samples(): %+v", got[len(got)-1])
	}
}

// TestWritePrometheusPrefix pins the server-side family filter: a prefix
// keeps exactly the families whose name starts with it, rendered in the same
// order and bytes as the corresponding slice of the full dump, and the empty
// prefix keeps everything.
func TestWritePrometheusPrefix(t *testing.T) {
	r := NewRegistry()
	r.Counter("vod_requests_total", "Admitted customer requests.").Add(3)
	r.GaugeWith("vod_channel_load", "Per-video slot load.", Labels{"video": "1"}).Set(4)
	r.GaugeWith("go_goroutines", "Live goroutines.", nil).Set(7)

	var full, filtered, empty bytes.Buffer
	if err := r.WritePrometheusPrefix(&full, ""); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheusPrefix(&filtered, "vod_"); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheusPrefix(&empty, "zzz_"); err != nil {
		t.Fatal(err)
	}

	want := `# HELP vod_channel_load Per-video slot load.
# TYPE vod_channel_load gauge
vod_channel_load{video="1"} 4
# HELP vod_requests_total Admitted customer requests.
# TYPE vod_requests_total counter
vod_requests_total 3
`
	if got := filtered.String(); got != want {
		t.Fatalf("prefix filter drift:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if !strings.Contains(full.String(), "go_goroutines 7\n") {
		t.Fatalf("empty prefix dropped a family:\n%s", full.String())
	}
	if empty.Len() != 0 {
		t.Fatalf("non-matching prefix produced output:\n%s", empty.String())
	}

	// WritePrometheus must stay byte-identical to the empty-prefix path.
	var def bytes.Buffer
	if err := r.WritePrometheusPrefix(&def, ""); err != nil {
		t.Fatal(err)
	}
	if def.String() != full.String() {
		t.Fatal("WritePrometheus diverged from WritePrometheusPrefix(\"\")")
	}
}
