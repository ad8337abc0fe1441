// Package server simulates a complete video-on-demand server distributing a
// catalogue of videos with the DHB protocol over a shared channel pool. The
// paper's introduction motivates exactly this setting: per-video demand that
// swings with the time of day and a catalogue whose popularity is heavily
// skewed, where a protocol must behave well at every request rate at once.
//
// The simulation is a thin deterministic driver over the same
// internal/station broadcast engine the network server uses: it feeds the
// station synthetic Zipf-skewed arrivals and advances its clock by hand, so
// every behaviour measured here is the behaviour a live deployment ships.
package server

import (
	"fmt"

	"vodcast/internal/core"
	"vodcast/internal/metrics"
	"vodcast/internal/obs"
	"vodcast/internal/sim"
	"vodcast/internal/station"
	"vodcast/internal/workload"
)

// VideoSpec describes one catalogue entry.
type VideoSpec struct {
	// Name labels the video in reports.
	Name string
	// Segments is the DHB segment count n.
	Segments int
	// Periods optionally carries a DHB-d period vector; nil selects the
	// CBR default.
	Periods []int
	// Rate is the per-stream bandwidth (stream units or bytes per second).
	Rate float64
}

// Config parameterizes a server simulation.
type Config struct {
	// Videos is the catalogue, ordered from most to least popular.
	Videos []VideoSpec
	// ZipfSkew shapes the popularity law across the catalogue (0 =
	// uniform, 1 = classic Zipf).
	ZipfSkew float64
	// Arrivals is the aggregate request rate across all videos.
	Arrivals workload.RateFunc
	// SlotSeconds is the shared slot duration d.
	SlotSeconds float64
	// HorizonSlots is the simulated span; WarmupSlots are excluded from
	// the statistics.
	HorizonSlots int
	WarmupSlots  int
	// ChannelCapacity, when positive, is the provisioned channel pool (in
	// the units of VideoSpec.Rate). The simulation still transmits
	// everything — DHB schedules ahead, so shedding would break its
	// guarantee — but the report carries how often and how far the load
	// exceeded the pool, the capacity-planning question Section 4's
	// "empty slots could be shared by other videos" raises.
	ChannelCapacity float64
	// DeferRequests additionally turns the capacity into admission
	// control: a request arriving while the next slot's scheduled load has
	// already reached the pool is queued and retried one slot later, so
	// overload degrades waiting times instead of bandwidth. It requires
	// ChannelCapacity > 0.
	DeferRequests bool
	// Registry optionally receives the station's pipeline-stage instruments,
	// so a simulation run exposes the same observability surface as the
	// networked server (useful for calibrating stage budgets offline before a
	// deployment).
	Registry *obs.Registry
	// Seed drives the deterministic RNG.
	Seed int64
}

// VideoReport summarizes one video's share of a run.
type VideoReport struct {
	Name         string
	Requests     int64
	AvgBandwidth float64
	MaxBandwidth float64
}

// Report summarizes a run. Bandwidths are in the units of VideoSpec.Rate.
type Report struct {
	// AvgBandwidth and MaxBandwidth aggregate the whole channel pool.
	AvgBandwidth float64
	MaxBandwidth float64
	// AvgWaitSeconds and MaxWaitSeconds cover all customers (a customer
	// waits for the start of the next slot).
	AvgWaitSeconds float64
	MaxWaitSeconds float64
	Requests       int64
	// P99Bandwidth is the 99th-percentile aggregate load, the usual
	// provisioning target.
	P99Bandwidth float64
	// OverflowFraction and OverflowExcess describe how the load relates to
	// Config.ChannelCapacity: the fraction of measured time above the pool
	// and the time-average excess while above it. Both are zero when no
	// capacity was configured.
	OverflowFraction float64
	OverflowExcess   float64
	// DeferredRequests counts admissions postponed by admission control
	// (Config.DeferRequests); MaxQueue is the longest deferral queue seen.
	DeferredRequests int64
	MaxQueue         int
	PerVideo         []VideoReport
}

// Server is a configured simulation. Build with New, execute with Run.
type Server struct {
	cfg     Config
	zipf    *workload.Zipf
	rng     *sim.RNG
	station *station.Station
	// loadScratch is reused across projectedNextLoad calls.
	loadScratch []int
}

// New validates cfg and prepares the broadcast engine.
func New(cfg Config) (*Server, error) {
	if len(cfg.Videos) == 0 {
		return nil, ErrEmptyCatalogue
	}
	if cfg.Arrivals == nil {
		return nil, ErrNilArrivals
	}
	if cfg.SlotSeconds <= 0 {
		return nil, fmt.Errorf("%w: got %v", ErrBadSlotDuration, cfg.SlotSeconds)
	}
	if cfg.HorizonSlots <= cfg.WarmupSlots {
		return nil, fmt.Errorf("%w: horizon %d, warmup %d", ErrBadHorizon, cfg.HorizonSlots, cfg.WarmupSlots)
	}
	if cfg.ChannelCapacity < 0 {
		return nil, fmt.Errorf("%w: got %v", ErrBadCapacity, cfg.ChannelCapacity)
	}
	if cfg.DeferRequests && cfg.ChannelCapacity <= 0 {
		return nil, ErrBadDeferral
	}
	zipf, err := workload.NewZipf(len(cfg.Videos), cfg.ZipfSkew)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	videos := make([]station.VideoConfig, len(cfg.Videos))
	for i, v := range cfg.Videos {
		if v.Rate <= 0 {
			return nil, fmt.Errorf("%w: video %q has rate %v", ErrBadRate, v.Name, v.Rate)
		}
		videos[i] = station.VideoConfig{Name: v.Name, Segments: v.Segments, Periods: v.Periods}
	}
	st, err := station.New(station.Config{Videos: videos, Registry: cfg.Registry})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	return &Server{
		cfg:     cfg,
		zipf:    zipf,
		rng:     sim.NewRNG(cfg.Seed),
		station: st,
	}, nil
}

// pendingReq is a customer waiting for admission under deferral control.
type pendingReq struct {
	video       int
	arrivalSlot int
	// baseWait is the partial-slot wait the customer always pays.
	baseWait float64
	measured bool
}

// projectedNextLoad reports the aggregate load already scheduled for the
// next transmission slot, the quantity admission control gates on.
func (s *Server) projectedNextLoad() float64 {
	s.loadScratch = s.station.NextLoads(s.loadScratch)
	load := 0.0
	for i, l := range s.loadScratch {
		load += float64(l) * s.cfg.Videos[i].Rate
	}
	return load
}

// Run executes the simulation and returns its report.
func (s *Server) Run() Report {
	var (
		cfg      = s.cfg
		total    = metrics.NewBandwidth()
		perVideo = make([]*metrics.Bandwidth, len(cfg.Videos))
		waits    = metrics.NewWait()
		requests = make([]int64, len(cfg.Videos))
		arrivals = workload.NewSlottedArrivals(s.rng, cfg.Arrivals, cfg.SlotSeconds)

		overflowSlots int
		overflowSum   float64

		pending  []pendingReq
		deferred int64
		maxQueue int
	)
	for i := range perVideo {
		perVideo[i] = metrics.NewBandwidth()
	}
	for slot := 0; slot < cfg.HorizonSlots; slot++ {
		for a := 0; a < arrivals.Next(); a++ {
			pending = append(pending, pendingReq{
				video:       s.zipf.Sample(s.rng),
				arrivalSlot: slot,
				// The customer arrived uniformly inside the slot and waits
				// at least until the next slot boundary.
				baseWait: (1 - s.rng.Float64()) * cfg.SlotSeconds,
				measured: slot >= cfg.WarmupSlots,
			})
		}
		if len(pending) > maxQueue {
			maxQueue = len(pending)
		}
		// Admit in arrival order; under deferral control, stop at the
		// first customer the channel pool cannot take and retry the rest
		// next slot.
		admitted := 0
		for _, req := range pending {
			if cfg.DeferRequests && s.projectedNextLoad() >= cfg.ChannelCapacity {
				break
			}
			// The error is impossible: the index came from the Zipf sampler
			// and the station is never closed during Run.
			_, _ = s.station.Admit(req.video, core.AdmitOptions{})
			requests[req.video]++
			admitted++
			if req.measured {
				waits.Record(req.baseWait + float64(slot-req.arrivalSlot)*cfg.SlotSeconds)
			}
			if slot > req.arrivalSlot {
				deferred++
			}
		}
		pending = pending[admitted:]
		aggregate := 0.0
		for i, rep := range s.station.AdvanceSlot() {
			weighted := float64(rep.Load) * cfg.Videos[i].Rate
			aggregate += weighted
			if slot >= cfg.WarmupSlots {
				perVideo[i].Record(weighted, cfg.SlotSeconds)
			}
		}
		if slot >= cfg.WarmupSlots {
			total.Record(aggregate, cfg.SlotSeconds)
			if cfg.ChannelCapacity > 0 && aggregate > cfg.ChannelCapacity {
				overflowSlots++
				overflowSum += aggregate - cfg.ChannelCapacity
			}
		}
	}
	measured := cfg.HorizonSlots - cfg.WarmupSlots
	rep := Report{
		AvgBandwidth:   total.Mean(),
		MaxBandwidth:   total.Max(),
		AvgWaitSeconds: waits.Mean(),
		MaxWaitSeconds: waits.Max(),
		P99Bandwidth:   float64(total.Quantile(0.99)),
		PerVideo:       make([]VideoReport, len(cfg.Videos)),
	}
	if cfg.ChannelCapacity > 0 && measured > 0 {
		rep.OverflowFraction = float64(overflowSlots) / float64(measured)
		if overflowSlots > 0 {
			rep.OverflowExcess = overflowSum / float64(overflowSlots)
		}
	}
	// Customers still queued at the horizon were deferred too.
	rep.DeferredRequests = deferred + int64(len(pending))
	rep.MaxQueue = maxQueue
	for i, v := range cfg.Videos {
		rep.Requests += requests[i]
		rep.PerVideo[i] = VideoReport{
			Name:         v.Name,
			Requests:     requests[i],
			AvgBandwidth: perVideo[i].Mean(),
			MaxBandwidth: perVideo[i].Max(),
		}
	}
	return rep
}
