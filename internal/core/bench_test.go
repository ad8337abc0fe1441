package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkAdmit is the admission cost matrix: catalogue sizes n x
// arrivals per slot. Each benchmark op is ONE admission; a slot advance is
// folded in every `arrivals` admissions, so ns/op is the amortized
// steady-state admit cost. At arrivals=1 every admission places what the
// previous slot's retire took away; at arrivals=64 the later admissions of
// a slot share every segment, one window check each. The resume row has
// the shape of the serving benchmark's resume workload: every customer
// resumes at one of the last 8 of 1000 segments and shares whatever its
// short window holds. Every row reports inst/req, the instances scheduled
// per admission.
func BenchmarkAdmit(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		for _, arrivals := range []int{1, 64} {
			name := fmt.Sprintf("n=%d/arrivals=%d", n, arrivals)
			b.Run(name, func(b *testing.B) { benchAdmit(b, n, arrivals, nil) })
		}
	}
	const n = 1000
	rng := rand.New(rand.NewSource(1))
	froms := make([]int, 4096)
	for k := range froms {
		froms[k] = n - rng.Intn(8)
	}
	b.Run(fmt.Sprintf("n=%d/arrivals=5/resume", n), func(b *testing.B) { benchAdmit(b, n, 5, froms) })
}

// benchAdmit admits b.N customers to an n-segment scheduler, advancing the
// slot every arrivals admissions. The k-th customer starts at segment
// froms[k mod len(froms)], or views in full when froms is nil.
func benchAdmit(b *testing.B, n, arrivals int, froms []int) {
	s, err := New(Config{Segments: n})
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
