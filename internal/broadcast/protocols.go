package broadcast

import "fmt"

// FastBroadcast builds Juhn and Tseng's FB mapping for n segments: stream j
// (1-based) cyclically carries segments 2^(j-1) .. min(2^j - 1, n), as in
// Figure 1 of the paper. The final stream is truncated when n is not of the
// form 2^k - 1, which only shortens its cycle and so preserves the
// broadcasting invariant.
func FastBroadcast(n int) (*Mapping, error) {
	if n <= 0 {
		return nil, fmt.Errorf("broadcast: FB needs a positive segment count, got %d", n)
	}
	var streams []Stream
	for lo := 1; lo <= n; lo *= 2 {
		hi := min(2*lo-1, n)
		streams = append(streams, Stream{
			M:    1,
			Subs: []Substream{{Start: lo, Count: hi - lo + 1}},
		})
	}
	return NewMapping(n, streams)
}

// skyscraperWidths yields the SB segment-group width series
// 1, 2, 2, 5, 5, 12, 12, 25, 25, 52, 52, ... of Hua and Sheu.
func skyscraperWidths(k int) []int {
	w := make([]int, k)
	for i := 0; i < k; i++ {
		switch {
		case i == 0:
			w[i] = 1
		case i == 1 || i == 2:
			w[i] = 2
		case (i+1)%2 == 0: // even 1-based index >= 4
			if (i+1)%4 == 0 {
				w[i] = 2*w[i-1] + 1
			} else {
				w[i] = 2*w[i-1] + 2
			}
		default: // odd 1-based index >= 5 repeats its predecessor
			w[i] = w[i-1]
		}
	}
	return w
}

// Skyscraper builds Hua and Sheu's SB mapping for n segments (Figure 3 of
// the paper): stream j cyclically carries a group of w(j) consecutive
// segments, with the width series 1, 2, 2, 5, 5, 12, 12, ... The final
// group is truncated to n.
func Skyscraper(n int) (*Mapping, error) {
	if n <= 0 {
		return nil, fmt.Errorf("broadcast: SB needs a positive segment count, got %d", n)
	}
	var streams []Stream
	start := 1
	var widths []int
	for i := 0; start <= n; i++ {
		widths = skyscraperWidths(i + 1)
		count := min(widths[i], n-start+1)
		streams = append(streams, Stream{
			M:    1,
			Subs: []Substream{{Start: start, Count: count}},
		})
		start += count
	}
	return NewMapping(n, streams)
}

// Pagoda builds a pagoda-family mapping for n segments with a greedy
// fixed-delay-pagoda packer: each new stream starts at the first unassigned
// segment f, is split into m substreams (m chosen to maximize the number of
// segments packed), and substream r carries q_r = floor(g_r / m) consecutive
// segments starting at g_r, giving each a period q_r*m <= g_r.
//
// This stands in for the paper's NPB comparator (see DESIGN.md §3): the DHB
// paper only reproduces NPB's first three streams, and this packer satisfies
// the same invariant, fills streams almost as densely (8 vs 9 segments on
// three streams), and needs the same six streams for the evaluated
// 99-segment configuration.
func Pagoda(n int) (*Mapping, error) {
	if n <= 0 {
		return nil, fmt.Errorf("broadcast: pagoda needs a positive segment count, got %d", n)
	}
	var streams []Stream
	f := 1
	for f <= n {
		bestM, bestPacked := 1, 0
		for m := 1; m <= f; m++ {
			packed := pagodaPacked(f, m)
			if packed > bestPacked {
				bestM, bestPacked = m, packed
			}
		}
		st := Stream{M: bestM, Subs: make([]Substream, bestM)}
		g := f
		for r := 0; r < bestM; r++ {
			q := g / bestM
			if g > n {
				// Later substreams of the final stream stay idle once all
				// segments are assigned.
				st.Subs[r] = Substream{Start: 0, Count: 0}
				continue
			}
			count := min(q, n-g+1)
			st.Subs[r] = Substream{Start: g, Count: count}
			g += count
		}
		streams = append(streams, st)
		f = g
	}
	return NewMapping(n, streams)
}

// pagodaPacked reports how many segments a stream starting at segment f
// packs when split into m substreams.
func pagodaPacked(f, m int) int {
	g := f
	for r := 0; r < m; r++ {
		g += g / m
	}
	return g - f
}

// PagodaStreams reports how many streams the greedy pagoda packer needs for
// n segments.
func PagodaStreams(n int) int {
	m, err := Pagoda(n)
	if err != nil {
		return 0
	}
	return m.Streams()
}

// NPBFigure2 returns the canonical three-stream, nine-segment New Pagoda
// Broadcasting mapping exactly as drawn in Figure 2 of the paper:
//
//	stream 1: S1 S1 S1 S1 S1 S1 ...
//	stream 2: S2 S4 S2 S5 S2 S4 ...
//	stream 3: S3 S6 S8 S3 S7 S9 ...
func NPBFigure2() (*Mapping, error) {
	return NewMapping(9, []Stream{
		{M: 1, Subs: []Substream{{Start: 1, Count: 1}}},
		{M: 2, Subs: []Substream{
			{Start: 2, Count: 1},
			{Start: 4, Count: 2},
		}},
		{M: 3, Subs: []Substream{
			{Start: 3, Count: 1},
			{Start: 6, Count: 2},
			{Start: 8, Count: 2},
		}},
	})
}
