// Package par is the bounded worker pool the experiment layer fans its
// independent cells across. A cell is one self-contained unit of
// simulated work — it builds its own sim.Kernel, runs it to completion
// and writes its result into a slot reserved by cell index — so cells
// share no simulation state and the merge order is fixed by declaration,
// never by completion: output is byte-identical at any worker count.
//
// The pool is a single process-wide token bucket (set once via
// SetWorkers, from cmd/experiments -j). Do is safe to nest: when every
// token is taken, a cell simply runs inline on the calling goroutine
// instead of waiting for a token that an enclosing Do may be holding,
// so nested fan-outs (the suite's experiments, each fanning out its own
// cells) cannot deadlock and total concurrency stays bounded by the
// worker count.
package par

import (
	"sync"
	"time"
)

var (
	mu sync.Mutex
	// tokens is the pool of spare workers beyond the calling goroutine;
	// nil (or closed capacity 0) means serial execution.
	tokens chan struct{}
	n      = 1
)

// SetWorkers sets the process-wide worker count (minimum 1). It is not
// meant to be called concurrently with running cells; cmd/experiments
// and tests call it once up front.
func SetWorkers(workers int) {
	if workers < 1 {
		workers = 1
	}
	mu.Lock()
	defer mu.Unlock()
	n = workers
	if workers > 1 {
		tokens = make(chan struct{}, workers-1)
	} else {
		tokens = nil
	}
}

// Workers returns the configured worker count.
func Workers() int {
	mu.Lock()
	defer mu.Unlock()
	return n
}

// acquire takes a spare-worker token without blocking.
func acquire() bool {
	mu.Lock()
	t := tokens
	mu.Unlock()
	if t == nil {
		return false
	}
	select {
	case t <- struct{}{}:
		return true
	default:
		return false
	}
}

func release() {
	mu.Lock()
	t := tokens
	mu.Unlock()
	<-t
}

// Do runs fn(0) … fn(n-1) across the worker pool and returns when all
// calls have completed. Each index runs exactly once; writes the calls
// make to distinct index-addressed slots are visible to the caller when
// Do returns. With one worker (or one cell) the calls run inline in
// index order — the exact serial semantics every higher worker count
// must reproduce byte-for-byte.
func Do(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if i < n-1 && acquire() {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer release()
				fn(i)
			}(i)
			continue
		}
		// Pool saturated (or last cell): the calling goroutine is a
		// worker too.
		fn(i)
	}
	wg.Wait()
}

// Timing is one cell's measured wall-clock cost.
type Timing struct {
	Label string
	Wall  time.Duration
}

var (
	timingMu sync.Mutex
	timings  []Timing
)

// RecordTiming logs a cell's wall-clock duration for the -cells report.
// Entries arrive in completion order; consumers group and sort by label.
func RecordTiming(label string, d time.Duration) {
	timingMu.Lock()
	timings = append(timings, Timing{Label: label, Wall: d})
	timingMu.Unlock()
}

// DrainTimings returns all recorded cell timings and clears the log.
func DrainTimings() []Timing {
	timingMu.Lock()
	defer timingMu.Unlock()
	out := timings
	timings = nil
	return out
}
