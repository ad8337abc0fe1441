package broadcast

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestFastBroadcastFigure1(t *testing.T) {
	// Figure 1 of the paper: FB with three streams and seven segments.
	m, err := FastBroadcast(7)
	if err != nil {
		t.Fatal(err)
	}
	if m.Streams() != 3 {
		t.Fatalf("streams = %d, want 3", m.Streams())
	}
	rows := m.Render(4)
	want := []string{
		"S1 S1 S1 S1",
		"S2 S3 S2 S3",
		"S4 S5 S6 S7",
	}
	for i, w := range want {
		if rows[i] != w {
			t.Errorf("stream %d = %q, want %q", i+1, rows[i], w)
		}
	}
}

func TestFastBroadcastTruncated(t *testing.T) {
	// 99 segments: streams 1..6 full, stream 7 truncated to segments 64-99.
	m, err := FastBroadcast(99)
	if err != nil {
		t.Fatal(err)
	}
	if m.Streams() != 7 {
		t.Fatalf("streams = %d, want 7", m.Streams())
	}
	if got := m.Period(99); got != 36 {
		t.Fatalf("period(99) = %d, want 36 (truncated stream cycle)", got)
	}
	if got := m.Period(63); got != 32 {
		t.Fatalf("period(63) = %d, want 32", got)
	}
}

func TestFBStreams(t *testing.T) {
	tests := []struct{ n, want int }{
		{n: 1, want: 1},
		{n: 3, want: 2},
		{n: 4, want: 3},
		{n: 7, want: 3},
		{n: 63, want: 6},
		{n: 64, want: 7},
		{n: 99, want: 7},
		{n: 127, want: 7},
	}
	for _, tt := range tests {
		m, err := FastBroadcast(tt.n)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Streams(); got != tt.want {
			t.Errorf("FastBroadcast(%d) uses %d streams, want %d", tt.n, got, tt.want)
		}
	}
}

func TestSkyscraperFigure3(t *testing.T) {
	// Figure 3 of the paper: first three SB streams (widths 1, 2, 2).
	m, err := Skyscraper(5)
	if err != nil {
		t.Fatal(err)
	}
	rows := m.Render(6)
	want := []string{
		"S1 S1 S1 S1 S1 S1",
		"S2 S3 S2 S3 S2 S3",
		"S4 S5 S4 S5 S4 S5",
	}
	for i, w := range want {
		if rows[i] != w {
			t.Errorf("stream %d = %q, want %q", i+1, rows[i], w)
		}
	}
}

func TestSkyscraperWidthSeries(t *testing.T) {
	got := skyscraperWidths(11)
	want := []int{1, 2, 2, 5, 5, 12, 12, 25, 25, 52, 52}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("widths = %v, want %v", got, want)
		}
	}
}

func TestSkyscraperNeedsMoreStreamsThanFB(t *testing.T) {
	// The paper: "SB will always require more server bandwidth than NPB and
	// FB to guarantee the same maximum waiting time d".
	sb, err := Skyscraper(99)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := FastBroadcast(99)
	if err != nil {
		t.Fatal(err)
	}
	if sb.Streams() <= fb.Streams() {
		t.Fatalf("SB streams = %d, FB streams = %d: SB should need more", sb.Streams(), fb.Streams())
	}
}

func TestNPBFigure2(t *testing.T) {
	m, err := NPBFigure2()
	if err != nil {
		t.Fatal(err)
	}
	if m.Streams() != 3 || m.N() != 9 {
		t.Fatalf("NPB fixture: %d streams, %d segments; want 3, 9", m.Streams(), m.N())
	}
	rows := m.Render(6)
	want := []string{
		"S1 S1 S1 S1 S1 S1",
		"S2 S4 S2 S5 S2 S4",
		"S3 S6 S8 S3 S7 S9",
	}
	for i, w := range want {
		if rows[i] != w {
			t.Errorf("stream %d = %q, want %q", i+1, rows[i], w)
		}
	}
}

func TestPagodaPacksNinetyNineSegmentsIntoSixStreams(t *testing.T) {
	// The evaluation point of Figures 7-8: NPB with 99 segments runs on six
	// streams, and our pagoda packer must need the same count.
	if got := PagodaStreams(99); got != 6 {
		t.Fatalf("PagodaStreams(99) = %d, want 6", got)
	}
}

func TestPagodaBeatsFB(t *testing.T) {
	// A pagoda-family packer exists to pack more segments per stream than
	// FB does (paper Section 2: NPB packs 9 where FB packs 7).
	for _, n := range []int{20, 50, 99, 200, 500} {
		p, err := Pagoda(n)
		if err != nil {
			t.Fatal(err)
		}
		fb, err := FastBroadcast(n)
		if err != nil {
			t.Fatal(err)
		}
		if p.Streams() > fb.Streams() {
			t.Errorf("Pagoda(%d) uses %d streams, FB only %d", n, p.Streams(), fb.Streams())
		}
	}
	// And strictly fewer once n is large enough.
	p, err := Pagoda(99)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := FastBroadcast(99)
	if err != nil {
		t.Fatal(err)
	}
	if p.Streams() >= fb.Streams() {
		t.Fatalf("Pagoda(99) = %d streams, want < FB's %d", p.Streams(), fb.Streams())
	}
}

func TestPagodaSmallCases(t *testing.T) {
	tests := []struct{ n, want int }{
		{n: 1, want: 1},
		{n: 3, want: 2},
		{n: 8, want: 3},
		{n: 20, want: 4},
		{n: 50, want: 5},
		{n: 124, want: 6},
	}
	for _, tt := range tests {
		if got := PagodaStreams(tt.n); got != tt.want {
			t.Errorf("PagodaStreams(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestConstructorsRejectBadN(t *testing.T) {
	if _, err := FastBroadcast(0); err == nil {
		t.Error("FB(0) should error")
	}
	if _, err := Skyscraper(-1); err == nil {
		t.Error("SB(-1) should error")
	}
	if _, err := Pagoda(0); err == nil {
		t.Error("Pagoda(0) should error")
	}
}

func TestNewMappingValidation(t *testing.T) {
	tests := []struct {
		name    string
		n       int
		streams []Stream
	}{
		{
			name:    "missing segment",
			n:       2,
			streams: []Stream{{M: 1, Subs: []Substream{{Start: 1, Count: 1}}}},
		},
		{
			name: "duplicate segment",
			n:    2,
			streams: []Stream{
				{M: 1, Subs: []Substream{{Start: 1, Count: 2}}},
				{M: 1, Subs: []Substream{{Start: 2, Count: 1}}},
			},
		},
		{
			name:    "segment out of range",
			n:       1,
			streams: []Stream{{M: 1, Subs: []Substream{{Start: 1, Count: 2}}}},
		},
		{
			name:    "bad substream count",
			n:       1,
			streams: []Stream{{M: 2, Subs: []Substream{{Start: 1, Count: 1}}}},
		},
		{
			name: "period violation",
			n:    3,
			streams: []Stream{
				{M: 1, Subs: []Substream{{Start: 1, Count: 1}}},
				// S2 and S3 at period 4 violates period(S2) <= 2.
				{M: 2, Subs: []Substream{{Start: 2, Count: 2}, {Start: 0, Count: 0}}},
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewMapping(tt.n, tt.streams); err == nil {
				t.Fatal("want error")
			}
		})
	}
}

// checkTimeliness verifies the broadcasting guarantee: a client arriving in
// slot i (downloading everything from slot i+1 on) receives each segment s
// no later than slot i+s.
func checkTimeliness(t *testing.T, m *Mapping, arrivals []int) {
	t.Helper()
	for _, i := range arrivals {
		for s := 1; s <= m.N(); s++ {
			occ := m.FirstOccurrenceAfter(s, i)
			if occ <= i {
				t.Fatalf("FirstOccurrenceAfter(%d, %d) = %d not after arrival", s, i, occ)
			}
			if occ > i+s {
				t.Fatalf("segment %d for arrival at slot %d first broadcast at %d > %d", s, i, occ, i+s)
			}
			if m.segmentAt(m.segHome[s].stream, occ) != s {
				t.Fatalf("FirstOccurrenceAfter lied: slot %d of stream %d does not carry S%d", occ, m.segHome[s].stream, s)
			}
		}
	}
}

func TestTimelinessAllProtocols(t *testing.T) {
	arrivals := []int{0, 1, 2, 3, 17, 100, 9999}
	builders := []struct {
		name  string
		build func(int) (*Mapping, error)
	}{
		{name: "fb", build: FastBroadcast},
		{name: "sb", build: Skyscraper},
		{name: "pagoda", build: Pagoda},
	}
	for _, b := range builders {
		for _, n := range []int{1, 2, 7, 9, 50, 99} {
			m, err := b.build(n)
			if err != nil {
				t.Fatalf("%s(%d): %v", b.name, n, err)
			}
			t.Run(b.name, func(t *testing.T) { checkTimeliness(t, m, arrivals) })
		}
	}
	npb, err := NPBFigure2()
	if err != nil {
		t.Fatal(err)
	}
	checkTimeliness(t, npb, arrivals)
}

func TestTimelinessProperty(t *testing.T) {
	m, err := Pagoda(99)
	if err != nil {
		t.Fatal(err)
	}
	f := func(arrival uint16, seg uint8) bool {
		i := int(arrival)
		s := 1 + int(seg)%99
		occ := m.FirstOccurrenceAfter(s, i)
		return occ > i && occ <= i+s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPeriodsAtMostIndexProperty(t *testing.T) {
	for _, n := range []int{7, 30, 99} {
		for _, build := range []func(int) (*Mapping, error){FastBroadcast, Skyscraper, Pagoda} {
			m, err := build(n)
			if err != nil {
				t.Fatal(err)
			}
			for s := 1; s <= n; s++ {
				if m.Period(s) > s {
					t.Fatalf("period(%d) = %d > %d", s, m.Period(s), s)
				}
				if m.Period(s) < 1 {
					t.Fatalf("period(%d) = %d < 1", s, m.Period(s))
				}
			}
		}
	}
}

func TestRenderIdleSlots(t *testing.T) {
	m, err := NewMapping(2, []Stream{
		{M: 1, Subs: []Substream{{Start: 1, Count: 1}}},
		{M: 2, Subs: []Substream{{Start: 2, Count: 1}, {Start: 0, Count: 0}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	row := m.Render(4)[1]
	if !strings.Contains(row, "--") {
		t.Fatalf("idle slots not rendered: %q", row)
	}
}

func TestStreamsFullyPackedExceptLast(t *testing.T) {
	// Every stream but possibly the last must have no idle slots: that is
	// what makes pagoda protocols bandwidth-efficient.
	m, err := Pagoda(99)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < m.Streams()-1; j++ {
		for t2 := 0; t2 < 1000; t2++ {
			if m.segmentAt(j, t2) == 0 {
				t.Fatalf("stream %d idle at slot %d", j+1, t2)
			}
		}
	}
}
