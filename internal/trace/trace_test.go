package trace

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func mustCBR(t *testing.T, seconds int, rate float64) *Trace {
	t.Helper()
	rates := make([]float64, seconds)
	for i := range rates {
		rates[i] = rate
	}
	tr, err := New(rates)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewRejectsBadRates(t *testing.T) {
	tests := []struct {
		name  string
		rates []float64
	}{
		{name: "empty", rates: nil},
		{name: "zero", rates: []float64{1, 0, 1}},
		{name: "negative", rates: []float64{1, -2}},
		{name: "nan", rates: []float64{math.NaN()}},
		{name: "inf", rates: []float64{math.Inf(1)}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.rates); err == nil {
				t.Fatal("want error")
			}
		})
	}
}

func TestCBRStats(t *testing.T) {
	tr := mustCBR(t, 100, 500)
	if tr.Duration() != 100 || tr.Mean() != 500 || tr.Peak() != 500 {
		t.Fatalf("duration=%v mean=%v peak=%v", tr.Duration(), tr.Mean(), tr.Peak())
	}
	if tr.TotalBytes() != 50000 {
		t.Fatalf("TotalBytes = %v, want 50000", tr.TotalBytes())
	}
}

func TestRatesIsCopy(t *testing.T) {
	r := []float64{10, 20, 30}
	tr, err := New(r)
	if err != nil {
		t.Fatal(err)
	}
	r[0] = 999
	if tr.Rate(0) != 10 {
		t.Fatal("New kept the caller's slice")
	}
}

func TestCumulativeAt(t *testing.T) {
	tr, err := New([]float64{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		x    float64
		want float64
	}{
		{x: -1, want: 0},
		{x: 0, want: 0},
		{x: 0.5, want: 5},
		{x: 1, want: 10},
		{x: 1.5, want: 20},
		{x: 3, want: 60},
		{x: 99, want: 60},
	}
	for _, tt := range tests {
		if got := tr.CumulativeAt(tt.x); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("CumulativeAt(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
}

func TestTimeOfByte(t *testing.T) {
	tr, err := New([]float64{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		bytes float64
		want  float64
	}{
		{bytes: -5, want: 0},
		{bytes: 0, want: 0},
		{bytes: 5, want: 0.5},
		{bytes: 10, want: 1},
		{bytes: 25, want: 1.75},
		{bytes: 60, want: 3},
		{bytes: 100, want: 3},
	}
	for _, tt := range tests {
		if got := tr.TimeOfByte(tt.bytes); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("TimeOfByte(%v) = %v, want %v", tt.bytes, got, tt.want)
		}
	}
}

func TestTimeOfByteInvertsCumulative(t *testing.T) {
	tr, err := SyntheticMatrix(1)
	if err != nil {
		t.Fatal(err)
	}
	f := func(frac float64) bool {
		x := math.Mod(math.Abs(frac), 1) * tr.Duration()
		bytes := tr.CumulativeAt(x)
		back := tr.TimeOfByte(bytes)
		return math.Abs(back-x) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentBytesSumToTotal(t *testing.T) {
	tr, err := SyntheticMatrix(2)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := tr.SegmentBytes(137)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 137 {
		t.Fatalf("len = %d, want 137", len(segs))
	}
	sum := 0.0
	for _, s := range segs {
		if s <= 0 {
			t.Fatal("segment with non-positive bytes")
		}
		sum += s
	}
	if math.Abs(sum-tr.TotalBytes()) > 1e-3 {
		t.Fatalf("segments sum to %v, want %v", sum, tr.TotalBytes())
	}
}

func TestSegmentBytesError(t *testing.T) {
	tr := mustCBR(t, 10, 1)
	if _, err := tr.SegmentBytes(0); err == nil {
		t.Fatal("zero segments should error")
	}
}

func TestSyntheticMatrixMatchesPublishedStats(t *testing.T) {
	tr, err := SyntheticMatrix(42)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Seconds(); got != 8170 {
		t.Fatalf("duration = %d s, want 8170 (paper Section 4)", got)
	}
	if got := tr.Mean(); math.Abs(got-636e3) > 1 {
		t.Fatalf("mean = %v B/s, want 636000 (paper Section 4)", got)
	}
	if got := tr.Peak(); math.Abs(got-951e3) > 1 {
		t.Fatalf("peak = %v B/s, want 951000 (paper Section 4)", got)
	}
}

func TestSyntheticDeterministicPerSeed(t *testing.T) {
	a, err := SyntheticMatrix(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SyntheticMatrix(7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Seconds(); i++ {
		if a.Rate(i) != b.Rate(i) {
			t.Fatalf("same seed diverged at second %d", i)
		}
	}
	c, err := SyntheticMatrix(8)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := 0; i < a.Seconds(); i++ {
		if a.Rate(i) != c.Rate(i) {
			diff++
		}
	}
	if diff < a.Seconds()/2 {
		t.Fatalf("different seeds produced mostly identical traces (%d differing samples)", diff)
	}
}

func TestSyntheticIsGenuinelyVariable(t *testing.T) {
	tr, err := SyntheticMatrix(3)
	if err != nil {
		t.Fatal(err)
	}
	var sumSq float64
	mean := tr.Mean()
	for i := 0; i < tr.Seconds(); i++ {
		d := tr.Rate(i) - mean
		sumSq += d * d
	}
	stddev := math.Sqrt(sumSq / tr.Duration())
	// An MPEG movie trace has a coefficient of variation well above a few
	// percent; require at least 5% so a near-CBR regression is caught.
	if stddev/mean < 0.05 {
		t.Fatalf("coefficient of variation = %.4f, trace is too flat", stddev/mean)
	}
	if tr.Peak() <= 1.2*mean {
		t.Fatalf("peak %v too close to mean %v", tr.Peak(), mean)
	}
}

func TestSyntheticConfigValidation(t *testing.T) {
	tests := []struct {
		name string
		mut  func(*SyntheticConfig)
	}{
		{name: "zero seconds", mut: func(c *SyntheticConfig) { c.Seconds = 0 }},
		{name: "zero mean", mut: func(c *SyntheticConfig) { c.MeanRate = 0 }},
		{name: "peak below mean", mut: func(c *SyntheticConfig) { c.PeakRate = c.MeanRate / 2 }},
		{name: "short scenes", mut: func(c *SyntheticConfig) { c.SceneMeanLength = 0.5 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := MatrixConfig()
			tt.mut(&cfg)
			if _, err := Synthetic(cfg, 1); err == nil {
				t.Fatal("want error")
			}
		})
	}
}

func TestWriteCSV(t *testing.T) {
	tr, err := New([]float64{1.5, 2, 1e6})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "second,bytes\n0,1.5\n1,2\n2,1000000\n"; got != want {
		t.Fatalf("WriteCSV wrote %q, want %q", got, want)
	}
}
