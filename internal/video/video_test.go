package video

import "testing"

func TestDefaultPeriods(t *testing.T) {
	p := DefaultPeriods(5)
	want := []int{0, 1, 2, 3, 4, 5}
	if len(p) != len(want) {
		t.Fatalf("len = %d, want %d", len(p), len(want))
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("p[%d] = %d, want %d", i, p[i], want[i])
		}
	}
}

func TestValidatePeriods(t *testing.T) {
	tests := []struct {
		name    string
		periods []int
		n       int
		wantErr bool
	}{
		{name: "default", periods: DefaultPeriods(4), n: 4},
		{name: "stretched", periods: []int{0, 1, 3, 3, 9}, n: 4},
		{name: "wrong length", periods: []int{0, 1, 2}, n: 4, wantErr: true},
		{name: "T1 not 1", periods: []int{0, 2, 2, 3, 4}, n: 4, wantErr: true},
		{name: "zero period", periods: []int{0, 1, 0, 3, 4}, n: 4, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := ValidatePeriods(tt.periods, tt.n)
			if (err != nil) != tt.wantErr {
				t.Fatalf("err = %v, wantErr = %v", err, tt.wantErr)
			}
		})
	}
}
