package core

import "testing"

// Shorthand wrappers over AdmitRequest for the test suites, matching the
// shapes of the retired method family (Admit, AdmitTraced, AdmitFrom,
// AdmitFromTraced) so scenario tests stay terse.

func admit(s *Scheduler) int {
	res, _ := s.AdmitRequest(AdmitOptions{})
	return res.Placed
}

func admitTraced(s *Scheduler) []int {
	res, _ := s.AdmitRequest(AdmitOptions{WantAssignment: true})
	return res.Assignment
}

func admitFrom(s *Scheduler, from int) (int, error) {
	res, err := s.AdmitRequest(AdmitOptions{From: from})
	return res.Placed, err
}

func admitFromTraced(s *Scheduler, from int) ([]int, error) {
	res, err := s.AdmitRequest(AdmitOptions{From: from, WantAssignment: true})
	if err != nil {
		return nil, err
	}
	return res.Assignment, nil
}

// checkDeadlines fails unless an assignment admitted during slot i for a
// customer starting at segment from serves every segment j >= from inside
// its window [i+1, i+T[j-from+1]].
func checkDeadlines(t *testing.T, s *Scheduler, i, from int, got []int) {
	t.Helper()
	for j := from; j <= s.n; j++ {
		if hi := i + s.Period(j-from+1); got[j] < i+1 || got[j] > hi {
			t.Fatalf("request of slot %d from segment %d: segment %d served at %d outside [%d, %d]",
				i, from, j, got[j], i+1, hi)
		}
	}
}
