package core

import (
	"fmt"
	"testing"
)

// BenchmarkAdmit is the before/after matrix of the admission fast path:
// catalogue sizes n x arrivals-per-slot x {reference, fast}. "reference" runs the
// linear-scan ring and no memo (Config.Reference), i.e. the pre-optimization
// trajectory; "fast" runs the RMQ ring plus the same-slot admission memo.
// Each benchmark op is ONE admission; a slot advance is folded in every
// `arrivals` admissions, so ns/op is the amortized steady-state admit cost.
// At arrivals=1 every admission pays a full placement loop on both paths
// (the memo never gets a same-slot hit), isolating the RMQ-vs-linear window
// query. At arrivals=64 the fast path serves 63 of 64 admissions from the
// memo, which is where the headline speedup comes from.
func BenchmarkAdmit(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		for _, arrivals := range []int{1, 64} {
			for _, mode := range []struct {
				name      string
				reference bool
			}{
				{"reference", true},
				{"fast", false},
			} {
				name := fmt.Sprintf("n=%d/arrivals=%d/%s", n, arrivals, mode.name)
				b.Run(name, func(b *testing.B) {
					s, err := New(Config{Segments: n, Reference: mode.reference})
					if err != nil {
						b.Fatal(err)
					}
					b.ReportAllocs()
					b.ResetTimer()
					k := 0
					for i := 0; i < b.N; i++ {
						admit(s)
						if k++; k == arrivals {
							k = 0
							s.AdvanceSlot()
						}
					}
				})
			}
		}
	}
}

// BenchmarkAdmitBuffered measures the allocation-free buffered path: the
// caller wants the full assignment vector back but supplies a reusable
// buffer, so steady-state admissions must be 0 allocs/op.
func BenchmarkAdmitBuffered(b *testing.B) {
	const n = 256
	s, err := New(Config{Segments: n})
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]int, n+1)
	b.ReportAllocs()
	b.ResetTimer()
	k := 0
	for i := 0; i < b.N; i++ {
		res, err := s.AdmitRequest(AdmitOptions{Assignment: buf})
		if err != nil {
			b.Fatal(err)
		}
		buf = res.Assignment
		if k++; k == 64 {
			k = 0
			s.AdvanceSlot()
		}
	}
}
