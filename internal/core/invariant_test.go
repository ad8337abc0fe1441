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
// the non-monotone ones video.ValidatePeriods accepts. The numbers: every
// schedule of a seeded trace, with resumes and with full viewings only, is
// pinned by hash.

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
		stb, err := client.NewFrom(arrival, periods, 1)
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
				mixedTrace(t, s, seed, 400, true, func(SlotReport) {}, func(from int, res AdmitResult) {
					checkDeadlines(t, s, res.Slot, from, res.Assignment)
				})
			}
		}
	})
}

// mixedTrace drives s through a seeded mix of slot advances (3 in 10),
// same-slot bursts of 1-4 full viewings (3 in 10) and resumes at a random
// segment (4 in 10), handing every retired slot and every admission, with
// its assignment, to the callbacks. The assignment buffer is reused. With
// resumes off a resume step admits a full viewing instead, drawing the same
// random numbers, so the arrivals keep their slots.
func mixedTrace(t *testing.T, s *Scheduler, seed int64, steps int, resumes bool, retired func(SlotReport), admitted func(from int, res AdmitResult)) {
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
			if !resumes {
				from = 1
			}
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

// digestCase is one configuration of TestScheduleDigestUnchanged, with the
// digest of its mixed trace and of the same trace with full viewings only.
type digestCase struct {
	name        string
	cfg         Config
	mixed, full string
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
func scheduleDigest(t *testing.T, cfg Config, seed int64, steps int, resumes bool) string {
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
	mixedTrace(t, s, seed, steps, resumes, func(rep SlotReport) {
		put(-1, rep.Slot, rep.Load, len(rep.Segments))
		put(rep.Segments...)
	}, func(from int, res AdmitResult) {
		put(from, res.Slot, res.Placed)
		put(res.Assignment...)
	})
	put(int(s.Requests()), int(s.Instances()))
	return hex.EncodeToString(h.Sum(nil))
}

// TestScheduleDigestUnchanged pins the schedule. The hashes stand for
// station.instances_per_request and every byte on the wire, so they must
// never move without a stated reason.
//
// The full-viewings-only hashes were recorded while the uncapped loop still
// shared only the latest instance of a segment. Instances placed for full
// viewings never lie past a later full viewing's window, so that instance
// is in the window whenever any is, and sharing any instance schedules the
// paper's figures, the commands and the examples exactly as before, on any
// vector. The mixed hashes of the capped rows were recorded
// before the admission loops were folded (d19f414). Those of the five
// uncapped rows were re-recorded, and the irregular row's first taken, when
// uncapped admission began sharing any instance in a resume's window rather
// than only the latest: a resume whose window ends before the latest S_j
// now shares an earlier S_j inside it instead of placing a duplicate, and
// the heuristic row's 2 277 requests fall from 7 387 instances to 4 687
// (n1000: 160 000 to 29 867). The irregular-earliest and n1 rows were
// recorded on the RMQ ring that the linear window scan replaced.
func TestScheduleDigestUnchanged(t *testing.T) {
	cases := []digestCase{
		{"heuristic", Config{Segments: 33},
			"de6c3aaf03e6648ba0d1cd3e32131733cbaffc299fc581f8dd9423b933ca50b6",
			"15df8de2ede67f8217f85941b25ea1f49c676815fd8296ad8dec8f78876d977c"},
		{"naive", Config{Segments: 33, Policy: PolicyNaive},
			"2472dcf4bbf3554e9dcb242e9a8131c3b1fcc48436cf5fae5660e40adc8520e7",
			"588bdd51b03de6c7c6f8c64d48ae6e6a6357c568332183e3fdb4308465e6294e"},
		{"earliest", Config{Segments: 33, Policy: PolicyMinLoadEarliest},
			"f85f7ea034d43c9817ecbeda3b089a352a198432d3fc851fded5a317b038c3af",
			"d0b10111847ea502d4790c8c02ac55ba6a32ba43e9e4025f8ef57b16f5b206dd"},
		{"cap1", Config{Segments: 9, MaxClientStreams: 1},
			"c7438845324427669501b4665738734b88ebe54572ebd53bbbc74e2bec1bee59",
			"da2a5cff5f6342a91b8b66a6691af9cb36f5ae75db611147aab94b4ce0e64483"},
		{"cap2", Config{Segments: 17, MaxClientStreams: 2},
			"04f9f3203c5d3388e7869254d1b039eefe81cd71041302564582cf72b9909fca",
			"950afba68b502688e1fa68f634e04ba791e4a82066fb1b23037bf5922bca6b05"},
		{"stretched", Config{Segments: 40, Periods: stretchedPeriods(40)},
			"d39c6c3db9075517053203ced9a7dd3767c271e4de384941fc6e36c138083a92",
			"dab8ca4f0624fd820de95ccd0826c047c76297451c753645f0170db745f18644"},
		{"stretched-cap3", Config{Segments: 40, Periods: stretchedPeriods(40), MaxClientStreams: 3},
			"2ee289f57911a51e53b7f2a3dce32dce544b4064fb20f59110638da1155edcd0",
			"0a1a95d001bf8593af3ea6033da8d948d88b30b46b0ce5a59e95043b2efac24b"},
		{"n1000", Config{Segments: 1000},
			"fe1a2f4abf0dc903acf67a4efc2527b65c8470762f507e3cb17437b9f66fcf3f",
			"8a07480f4c1e75804d57fac1eb1ff98f38e9396221cb4b22e30421fe35e37a49"},
		{"irregular", Config{Segments: len(irregularPeriods) - 1, Periods: irregularPeriods},
			"48a2b4989834fac8fb9ac892dccbfa76ec646e36121d0b08d776316a81138617",
			"50de7a78aea9d73e01b50566fa27ff39f9fce76e62631f11e0f183f000d5c72d"},
		{"irregular-earliest", Config{Segments: len(irregularPeriods) - 1, Periods: irregularPeriods, Policy: PolicyMinLoadEarliest},
			"86dfb0bcec41ae0ba4c482cf676c93928c477ebf2d22683cb054401e447713db",
			"caa11c605ecec8089cd4d36810007346f80b2e3c6020151c863f9769e75915f4"},
		{"n1", Config{Segments: 1}, // a resume from 1 is a full viewing
			"21dbca375f4a3db4ba555aae603a8cc8d2181bec0ab3f5743d9c2c77f940b587",
			"21dbca375f4a3db4ba555aae603a8cc8d2181bec0ab3f5743d9c2c77f940b587"},
	}
	for _, tc := range cases {
		if got := scheduleDigest(t, tc.cfg, 23, 2000, true); got != tc.mixed {
			t.Errorf("%s: mixed digest %s, recorded %s", tc.name, got, tc.mixed)
		}
		if got := scheduleDigest(t, tc.cfg, 23, 2000, false); got != tc.full {
			t.Errorf("%s: full-viewings digest %s, recorded %s", tc.name, got, tc.full)
		}
	}
}
