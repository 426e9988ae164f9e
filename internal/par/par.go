// Package par provides the tiny data-parallel primitive behind the
// experiment harness's environment construction and concurrent runs, and
// the tuning service's start-up recovery of its sessions: run n
// independent units of work across a bounded set of goroutines, with
// results written by index so callers stay deterministic regardless of
// scheduling.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// workerCount resolves a worker-count option: values <= 0 mean "one per
// available CPU", anything else is taken literally.
func workerCount(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Do runs fn(i) for every i in [0, n) using at most workers goroutines
// (<= 0 means GOMAXPROCS). With one worker — or trivially small n — it
// degrades to a plain loop on the calling goroutine, so a serial
// configuration pays no synchronization cost. Work is handed out through
// an atomic counter, which balances uneven unit costs without any
// per-unit channel traffic. Do returns once every unit has finished.
func Do(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = workerCount(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	body := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			body()
		}()
	}
	body() // the caller participates instead of blocking idle
	wg.Wait()
}

// Map runs fn over [0, n) in parallel and collects the results in index
// order.
func Map[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	Do(workers, n, func(i int) {
		out[i] = fn(i)
	})
	return out
}
