package history

import (
	"fmt"
	"testing"
	"time"

	"vodcast/internal/obs"
)

// benchRegistry builds a registry shaped like the server's metric inventory:
// one gauge child per video in each named per-video family, plus totals
// unlabelled gauges.
func benchRegistry(videos, totals int, families ...string) *obs.Registry {
	reg := obs.NewRegistry()
	for _, fam := range families {
		for v := 0; v < videos; v++ {
			reg.GaugeWith(fam, "", obs.Labels{"video": fmt.Sprint(v)}).Set(float64(v))
		}
	}
	for i := 0; i < totals; i++ {
		reg.GaugeWith(fmt.Sprintf("total_%03d", i), "", nil).Set(float64(i))
	}
	return reg
}

// BenchmarkStoreScrape measures one full scrape pass over an established
// series set — the per-interval cost of having history enabled. The catalogue
// case is a 2048-video server's shape, three per-video families beside 100
// totals, where the byte cap binds; it reports how many series were admitted.
func BenchmarkStoreScrape(b *testing.B) {
	b.Run("gauges=64", func(b *testing.B) {
		benchScrape(b, benchRegistry(64, 0, "vod_channel_load"))
	})
	b.Run("catalogue=2048", func(b *testing.B) {
		benchScrape(b, benchRegistry(2048, 100, "client_miss_total", "client_rebuffer_total", "vod_channel_load"))
	})
}

func benchScrape(b *testing.B, reg *obs.Registry) {
	clk := newManualClock()
	s := New(Config{Samples: reg.Samples, Interval: time.Second, Clock: clk.Now})
	s.Scrape() // establish series
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk.Advance(time.Second)
		s.Scrape()
	}
	b.ReportMetric(float64(s.Stats().Series), "series")
}

// BenchmarkStoreQuery measures an unbucketed range query over a full ring.
func BenchmarkStoreQuery(b *testing.B) {
	reg := obs.NewRegistry()
	g := reg.GaugeWith("g", "", nil)
	clk := newManualClock()
	s := New(Config{Samples: reg.Samples, Interval: time.Second, Clock: clk.Now})
	start := clk.Now()
	for i := 0; i < ringPoints; i++ {
		g.Set(float64(i))
		s.Scrape()
		clk.Advance(time.Second)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pts := s.Query("g", start, clk.Now(), 0); len(pts) == 0 {
			b.Fatal("empty query")
		}
	}
}
