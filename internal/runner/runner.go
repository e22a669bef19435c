// Package runner is the parallel experiment harness: it fans independent,
// deterministic units of work — one simulated cluster build-and-run each —
// out across host goroutines while preserving input order, so that a
// parallel run renders byte-identical output to a serial one.
//
// Determinism contract: a unit of work passed to Map or Stream must be
// self-contained — it builds every stateful object it touches (engine,
// cluster, RNGs seeded from the experiment's own constants) and shares
// nothing mutable with other units. Every simulation in this repository
// already satisfies this: per-cluster RNGs are seed-derived and a
// sim.Engine shares no state across instances. Under that contract the
// result slice is a pure function of the inputs, independent of the jobs
// setting, the host scheduler, and GOMAXPROCS.
//
// The harness has two levels:
//
//   - Map runs a grid of leaf data points (cluster simulations). A
//     package-global token pool caps the number executing at once across
//     ALL concurrent Map calls (default GOMAXPROCS, set via SetJobs), so
//     the host is never oversubscribed no matter how many experiments fan
//     out at the same time. Data points must not call Map or Stream
//     themselves.
//
//   - Stream orchestrates coarse units (whole experiments) concurrently
//     with a single ordered consumer. Stream units hold no pool token —
//     their simulations are throttled by the Map calls they make — so
//     nesting Map inside Stream composes without deadlock even at jobs=1.
package runner

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

var (
	jobsMu sync.Mutex
	// tokens caps concurrently executing Map data points. Replaced
	// wholesale by SetJobs; reads snapshot the current channel.
	tokens = make(chan struct{}, runtime.GOMAXPROCS(0))
)

// SetJobs sets the number of data points allowed to execute concurrently.
// n < 1 resets to GOMAXPROCS. It affects Map/Stream calls that start
// after it returns; it is not intended to be called while work is in
// flight.
func SetJobs(n int) {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	jobsMu.Lock()
	tokens = make(chan struct{}, n)
	jobsMu.Unlock()
}

// Jobs returns the current concurrency cap.
func Jobs() int {
	jobsMu.Lock()
	defer jobsMu.Unlock()
	return cap(tokens)
}

func pool() chan struct{} {
	jobsMu.Lock()
	defer jobsMu.Unlock()
	return tokens
}

// Map runs fn(0..n-1) with at most Jobs() data points executing
// concurrently — across all concurrent Map calls — and returns the
// results in index order. If any unit returns an error, Map returns the
// error of the lowest-indexed failing unit (the same failure a serial
// loop would have reported); all units are run regardless. A unit that
// panics fails with an error naming its index (see call).
//
// With Jobs() == 1 the units run strictly one at a time on the calling
// goroutine, an exact serial execution: the experiments' golden digests
// are written at jobs=1 and checked at jobs=8, byte for byte.
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	mapRun(n, func(i int) { out[i], errs[i] = call(i, fn) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// call runs one unit, turning a panic into that unit's error: a panic on
// a worker goroutine would otherwise kill the process without saying
// which of the grid's points blew up, and the other units' results with
// it. A simulation's callbacks run on the goroutine that called the
// engine's Run, so a panic in one arrives here as its own value (a
// process's as a *sim.PanicError). An error value is wrapped by the
// returned error; any other value is reported with the stack it came
// from.
func call[T any](i int, fn func(i int) (T, error)) (v T, err error) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case error:
			err = fmt.Errorf("runner: unit %d panicked: %w", i, r)
		default:
			err = fmt.Errorf("runner: unit %d panicked: %v\n%s", i, r, debug.Stack())
		}
	}()
	return fn(i)
}

// mapRun executes fn(0..n-1) on worker goroutines. Each data point holds
// a pool token only while it runs; workers waiting for a token hold
// nothing, so concurrent Map calls share the pool fairly.
func mapRun(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	p := pool()
	if cap(p) == 1 {
		// Serial mode: run inline, still claiming the token so that
		// concurrent Map calls (from Stream units) interleave at data
		// point granularity rather than truly in parallel.
		for i := 0; i < n; i++ {
			p <- struct{}{}
			fn(i)
			<-p
		}
		return
	}
	workers := cap(p)
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				p <- struct{}{}
				fn(i)
				<-p
			}
		}()
	}
	wg.Wait()
}

// Stream runs fn(0..n-1) as concurrent coarse units and delivers each
// result to emit in strict index order as soon as it and all its
// predecessors have completed: a pipeline with a single ordered consumer
// (the "-out file, one writer" path of cmd/ibridge-bench). emit runs on
// the caller's goroutine. Units hold no pool token — they are expected to
// issue their simulations through Map, which throttles globally.
//
// If a unit fails — or panics, which call turns into an error naming its
// index — Stream stops emitting at the first (lowest-indexed) error and
// returns it after all in-flight units finish. If emit returns
// an error, remaining results are discarded but units still run to
// completion. With Jobs() == 1, units run strictly serially, each emitted
// before the next starts.
func Stream[T any](n int, fn func(i int) (T, error), emit func(i int, v T) error) error {
	if n <= 0 {
		return nil
	}
	if Jobs() == 1 {
		for i := 0; i < n; i++ {
			v, err := call(i, fn)
			if err != nil {
				return err
			}
			if err := emit(i, v); err != nil {
				return err
			}
		}
		return nil
	}
	out := make([]T, n)
	errs := make([]error, n)
	ready := make([]chan struct{}, n)
	for i := range ready {
		i := i
		ready[i] = make(chan struct{})
		go func() {
			defer close(ready[i])
			out[i], errs[i] = call(i, fn)
		}()
	}
	var emitErr error
	for i := 0; i < n; i++ {
		<-ready[i]
		if errs[i] != nil {
			// Wait for the stragglers so no goroutine outlives the call.
			for j := i + 1; j < n; j++ {
				<-ready[j]
			}
			return errs[i]
		}
		if emitErr == nil {
			emitErr = emit(i, out[i])
		}
	}
	return emitErr
}
