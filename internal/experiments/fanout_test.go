package experiments

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// fanOut must keep synthesis at most 2×workers legs ahead of delivery,
// even when delivery is far slower than synthesis, and must deliver in
// submission order for any worker count.
func TestFanOutBoundsLead(t *testing.T) {
	const jobs = 40
	for _, workers := range []int{1, 2, 5} {
		r := &Runner{Cfg: Config{Workers: workers}}
		var inFlight, peak atomic.Int64
		run := func(i int) []int {
			n := inFlight.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			return []int{2 * i, 2*i + 1}
		}
		var got []int
		fanOut(r, "test", jobs, run, func(i, v int) {
			if v%2 == 1 {
				// The leg's last item: it leaves flight once delivered.
				time.Sleep(200 * time.Microsecond)
				inFlight.Add(-1)
			}
			got = append(got, v)
		})
		if p, limit := peak.Load(), int64(2*workers); p > limit {
			t.Errorf("workers=%d: %d legs in flight, limit %d", workers, p, limit)
		}
		want := make([]int, 2*jobs)
		for i := range want {
			want[i] = i
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: delivery order %v", workers, got)
		}
	}
}
