package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForVisitsEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{{0, 3}, {1, 4}, {7, 1}, {7, 3}, {5, 9}} {
		hits := make([]atomic.Int32, tc.n)
		For(tc.n, tc.workers, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Errorf("n=%d workers=%d: index %d ran %d times", tc.n, tc.workers, i, got)
			}
		}
	}
}

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	if got, want := Workers(0), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, want)
	}
}
