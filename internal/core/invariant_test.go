package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"vodcast/internal/client"
)

// This file pins the two halves of the admission contract. The guarantee:
// every admitted customer, full viewing or resume, is handed every segment
// no later than Slot + T[j-from+1], for ANY legal period vector, including
// the non-monotone ones video.ValidatePeriods accepts. The numbers: on a
// non-decreasing vector (everything the commands, the examples and the
// benchmark serve) the schedule is bit-for-bit what it was before the four
// admission loops were folded into two.

// irregularPeriods is a legal non-monotone period vector: T[1] must be 1,
// the rest just >= 1.
var irregularPeriods = []int{0, 1, 4, 2, 6, 3, 8, 5, 9, 7, 10, 11, 6, 13, 12, 15, 9}

// TestFullViewingAfterResumeMeetsDeadline: a resume may park an instance of
// S_j later than a full viewing's deadline for it when T is not
// non-decreasing; the full viewing must then get an instance of its own
// instead of sharing the late one.
func TestFullViewingAfterResumeMeetsDeadline(t *testing.T) {
	t.Run("T=[1,5,2]", func(t *testing.T) {
		periods := []int{0, 1, 5, 2}
		s := mustNew(t, Config{Segments: 3, Periods: periods, TrackSegments: true})
		// The resume consumes S_3 second, so it may wait until slot 0+T[2] = 5.
		if _, err := admitFrom(s, 2); err != nil {
			t.Fatal(err)
		}
		arrival := s.CurrentSlot()
		assignment := admitTraced(s)
		if assignment[3] > arrival+periods[3] {
			t.Errorf("full viewing handed S_3 at slot %d, deadline %d (assignment %v)",
				assignment[3], arrival+periods[3], assignment[1:])
		}
		stb, err := client.New(arrival, periods)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k <= 6; k++ {
			rep := s.AdvanceSlot()
			if err := stb.ObserveSlot(rep.Slot, rep.Segments); err != nil {
				t.Fatal(err)
			}
		}
		if !stb.Complete() {
			t.Fatal("set-top box did not receive every segment")
		}
	})
	t.Run("irregular-walk", func(t *testing.T) {
		for seed := int64(0); seed < 20; seed++ {
			for _, cap := range []int{0, 2} {
				s := mustNew(t, Config{Segments: len(irregularPeriods) - 1, Periods: irregularPeriods, MaxClientStreams: cap})
				mixedTrace(t, s, seed, 400, func(SlotReport) {}, func(from int, res AdmitResult) {
					checkDeadlines(t, s, res.Slot, from, res.Assignment)
				})
			}
		}
	})
}

// mixedTrace drives s through a seeded mix of slot advances (3 in 10),
// same-slot bursts of 1-4 full viewings (3 in 10) and resumes at a random
// segment (4 in 10), handing every retired slot and every admission, with
// its assignment, to the callbacks. The assignment buffer is reused.
func mixedTrace(t *testing.T, s *Scheduler, seed int64, steps int, retired func(SlotReport), admitted func(from int, res AdmitResult)) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	buf := make([]int, s.N()+1)
	for step := 0; step < steps; step++ {
		from, burst := 1, 1
		switch op := rng.Intn(10); {
		case op < 3:
			retired(s.AdvanceSlot())
			continue
		case op < 6:
			burst = 1 + rng.Intn(4)
		default:
			from = 1 + rng.Intn(s.N())
		}
		for ; burst > 0; burst-- {
			res, err := s.AdmitRequest(AdmitOptions{From: from, Assignment: buf})
			if err != nil {
				t.Fatal(err)
			}
			buf = res.Assignment
			admitted(from, res)
		}
	}
}

// digestCase is one configuration of TestScheduleDigestUnchanged.
type digestCase struct {
	name string
	cfg  Config
	want string
}

// stretchedPeriods is a non-decreasing vector with T[j] >= j, the shape
// Section 4's work-ahead plans produce.
func stretchedPeriods(n int) []int {
	p := make([]int, n+1)
	for j := 1; j <= n; j++ {
		p[j] = j + j/3
	}
	return p
}

// scheduleDigest hashes everything a caller can see of a mixedTrace: each
// admission's slot, placement count and assignment, and each retired
// SlotReport.
func scheduleDigest(t *testing.T, cfg Config, seed int64, steps int) string {
	t.Helper()
	cfg.TrackSegments = true
	s := mustNew(t, cfg)
	h := sha256.New()
	var word [8]byte
	put := func(vs ...int) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(word[:], uint64(v))
			h.Write(word[:])
		}
	}
	mixedTrace(t, s, seed, steps, func(rep SlotReport) {
		put(-1, rep.Slot, rep.Load, len(rep.Segments))
		put(rep.Segments...)
	}, func(from int, res AdmitResult) {
		put(from, res.Slot, res.Placed)
		put(res.Assignment...)
	})
	put(int(s.Requests()), int(s.Instances()))
	return hex.EncodeToString(h.Sum(nil))
}

// TestScheduleDigestUnchanged pins the schedule on non-decreasing vectors:
// the hashes were recorded at the commit before the admission loops were
// folded (d19f414) and must never move without a stated reason, since they
// stand for station.instances_per_request and every byte on the wire.
func TestScheduleDigestUnchanged(t *testing.T) {
	cases := []digestCase{
		{"heuristic", Config{Segments: 33}, "8341a3c678ecc30ad6e4b694d964b358e7d7b85d71a8e586f20945c1b8705d38"},
		{"naive", Config{Segments: 33, Policy: PolicyNaive}, "0ba9aabe910acb6bade1db5ff94ec2636b0d6b87a3e50999660087b5d52dcfb3"},
		{"earliest", Config{Segments: 33, Policy: PolicyMinLoadEarliest}, "6cad3de6415bedcc56599d3ffda56fd06bf10c1cedce67bd7a9fc34cc56beefc"},
		{"cap1", Config{Segments: 9, MaxClientStreams: 1}, "c7438845324427669501b4665738734b88ebe54572ebd53bbbc74e2bec1bee59"},
		{"cap2", Config{Segments: 17, MaxClientStreams: 2}, "04f9f3203c5d3388e7869254d1b039eefe81cd71041302564582cf72b9909fca"},
		{"stretched", Config{Segments: 40, Periods: stretchedPeriods(40)}, "a65e8830efd9302c06d890ad2adc33952c193c96df18e88fcced9c4e3acaea61"},
		{"stretched-cap3", Config{Segments: 40, Periods: stretchedPeriods(40), MaxClientStreams: 3}, "2ee289f57911a51e53b7f2a3dce32dce544b4064fb20f59110638da1155edcd0"},
		{"n1000", Config{Segments: 1000}, "1cd8655e5e3a06839d77a71c0388bbe99795b771e549e0334546b24d8e0c5152"},
	}
	for _, tc := range cases {
		if got := scheduleDigest(t, tc.cfg, 23, 2000); got != tc.want {
			t.Errorf("%s: digest %s, recorded %s", tc.name, got, tc.want)
		}
	}
}
