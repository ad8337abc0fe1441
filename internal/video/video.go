// Package video holds the maximum-period vector T that every DHB scheduler
// and set-top box shares: the CBR default T[i] = i, and the checks a vector
// from the paper's Section 4 VBR plans must pass.
package video

import "fmt"

// DefaultPeriods returns the CBR maximum-period vector T with T[i] = i
// (1-based; index 0 is unused and set to 0): segment S_i may be delayed at
// most i slots after the slot in which its request arrived.
func DefaultPeriods(n int) []int {
	t := make([]int, n+1)
	for i := 1; i <= n; i++ {
		t[i] = i
	}
	return t
}

// ValidatePeriods checks that a period vector is usable by the DHB scheduler:
// len(T) == n+1, T[1] == 1, and 1 <= T[i] for every segment. Periods larger
// than i are legal (Section 4 derives them from work-ahead smoothing).
func ValidatePeriods(t []int, n int) error {
	if len(t) != n+1 {
		return fmt.Errorf("video: period vector has length %d, want %d", len(t), n+1)
	}
	if n >= 1 && t[1] != 1 {
		return fmt.Errorf("video: T[1] = %d, must be 1", t[1])
	}
	for i := 1; i <= n; i++ {
		if t[i] < 1 {
			return fmt.Errorf("video: T[%d] = %d, must be >= 1", i, t[i])
		}
	}
	return nil
}
