// Package parallel holds the index-parallel loop that model training,
// cross-validation and per-dataset evaluation share.
package parallel

import (
	"runtime"
	"sync"
)

// Workers resolves a Workers knob: n > 0 is taken literally, anything
// else means one worker per core.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// For runs fn(i) for every i in [0, n) on at most workers goroutines
// and returns when all calls finished. With one worker (or one item) it
// degenerates to a plain loop on the calling goroutine, so serial
// configurations pay no synchronization. Callers keep determinism by
// making fn(i) a pure function of pre-drawn inputs that writes only to
// slot i of an output slice.
func For(n, workers int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
