package parallel

import (
	"runtime"
	"sync"
)

// DefaultWorkers returns the pool size used when a caller passes workers <= 0:
// GOMAXPROCS, the number of truly concurrent simulation loops the runtime
// will schedule.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// clampWorkers resolves a caller-supplied worker count: non-positive means
// DefaultWorkers, and there is never a reason to run more workers than
// items.
func clampWorkers(workers, n int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ForEach runs fn(i) for every i in [0, n) on at most workers goroutines
// (workers <= 0 selects DefaultWorkers) and returns when all calls have
// finished. Items are claimed in index order from a shared counter, so a
// single worker degenerates to the plain sequential loop. fn must confine
// its writes to per-index state.
func ForEach(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = clampWorkers(workers, n)
	if workers == 1 {
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

// Map runs fn(i) for every i in [0, n) on at most workers goroutines and
// returns the results in index order: out[i] = fn(i) regardless of
// completion order, so fan-out never reorders a sweep's points.
func Map[T any](workers, n int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	ForEach(workers, n, func(i int) {
		out[i] = fn(i)
	})
	return out
}
