package core

import (
	"fmt"
	"math/rand"
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
// memo, which is where the headline speedup comes from. The resume rows
// have the shape of the serving benchmark's resume workload: every
// customer resumes at one of the last 8 of 1000 segments, so no admission
// is a memo hit and each shares whatever its short window holds. Every row
// reports inst/req, the instances scheduled per admission.
func BenchmarkAdmit(b *testing.B) {
	modes := []struct {
		name      string
		reference bool
	}{
		{"reference", true},
		{"fast", false},
	}
	for _, n := range []int{64, 256, 1024} {
		for _, arrivals := range []int{1, 64} {
			for _, mode := range modes {
				name := fmt.Sprintf("n=%d/arrivals=%d/%s", n, arrivals, mode.name)
				b.Run(name, func(b *testing.B) { benchAdmit(b, n, arrivals, mode.reference, nil) })
			}
		}
	}
	const n = 1000
	rng := rand.New(rand.NewSource(1))
	froms := make([]int, 4096)
	for k := range froms {
		froms[k] = n - rng.Intn(8)
	}
	for _, mode := range modes {
		name := fmt.Sprintf("n=%d/arrivals=5/resume/%s", n, mode.name)
		b.Run(name, func(b *testing.B) { benchAdmit(b, n, 5, mode.reference, froms) })
	}
}

// benchAdmit admits b.N customers to an n-segment scheduler, advancing the
// slot every arrivals admissions. The k-th customer starts at segment
// froms[k mod len(froms)], or views in full when froms is nil.
func benchAdmit(b *testing.B, n, arrivals int, reference bool, froms []int) {
	s, err := New(Config{Segments: n, Reference: reference})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	k := 0
	for i := 0; i < b.N; i++ {
		opts := AdmitOptions{}
		if froms != nil {
			opts.From = froms[i%len(froms)]
		}
		if _, err := s.AdmitRequest(opts); err != nil {
			b.Fatal(err)
		}
		if k++; k == arrivals {
			k = 0
			s.AdvanceSlot()
		}
	}
	b.ReportMetric(float64(s.Instances())/float64(s.Requests()), "inst/req")
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
