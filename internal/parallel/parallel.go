// Package parallel is the bounded worker pool behind MosaicSim-Go's sweep
// engine. Independent simulations (experiment legs, DSE points) fan out
// across a fixed number of workers while every result is collected by index,
// so a sweep's output is byte-identical no matter how many workers ran it or
// in which order they finished.
//
// The pool budget is process-global: nested sweeps (an experiment fan-out
// whose legs themselves fan out) share one token pool instead of
// multiplying worker counts. A call that asks for an explicit width (jobs >
// 0) gets a dedicated pool of that width — tests and callers that need a
// known concurrency level use this.
//
// Sweeps are cancellable: the *Ctx variants check the context before
// claiming each leg, so cancelling a sweep abandons every queued leg
// deterministically (abandoned legs record the context error at their index)
// while legs already running finish — or, if they observe the same context
// themselves, return early.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

var (
	mu     sync.Mutex
	limit  int           // 0 = GOMAXPROCS
	tokens chan struct{} // capacity budget-1; admits helper goroutines
)

// SetLimit sets the global worker budget shared by every For call that does
// not request an explicit width (n <= 0 restores the GOMAXPROCS default).
// Call it once at startup — typically from a -jobs flag — before sweeps run.
func SetLimit(n int) {
	mu.Lock()
	defer mu.Unlock()
	limit = n
	tokens = nil // re-sized lazily against the new budget
}

// tokenPool returns the helper-admission channel for the current budget.
func tokenPool() chan struct{} {
	mu.Lock()
	defer mu.Unlock()
	if tokens == nil {
		n := limit
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		// n-1 helper tokens: the calling goroutine is the n-th worker.
		cap := n - 1
		if cap < 0 {
			cap = 0
		}
		tokens = make(chan struct{}, cap)
		for i := 0; i < cap; i++ {
			tokens <- struct{}{}
		}
	}
	return tokens
}

// For runs fn(i) for every i in [0, n) and waits for all of them.
//
// jobs > 0 requests a dedicated pool of exactly min(jobs, n) workers;
// jobs <= 0 uses the calling goroutine plus as many helpers as the global
// budget has free. The caller always participates, so For never blocks
// waiting for capacity, and nested calls cannot deadlock.
func For(jobs, n int, fn func(i int)) {
	forCtx(context.Background(), jobs, n, func(i int) error { fn(i); return nil }, nil)
}

// forCtx is the shared worker loop: it claims indices atomically and runs
// fn on each, recording errors by index into errs (when non-nil). Once ctx
// is cancelled, workers keep claiming indices but record ctx.Err() instead
// of running the leg, so the queue drains immediately and every abandoned
// leg is accounted for.
func forCtx(ctx context.Context, jobs, n int, fn func(i int) error, errs []error) {
	if n <= 0 {
		return
	}
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := ctx.Err(); err != nil {
				if errs != nil {
					errs[i] = err
				}
				continue // abandon queued legs, drain the index space
			}
			err := fn(i)
			if errs != nil {
				errs[i] = err
			}
		}
	}
	var wg sync.WaitGroup
	if jobs > 0 {
		// Dedicated pool: exact width, independent of the global budget.
		for w := 0; w < jobs-1 && w < n-1; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
	} else {
		// Shared pool: admit helpers while global tokens are free.
		pool := tokenPool()
	admit:
		for w := 0; w < n-1; w++ {
			select {
			case <-pool:
				wg.Add(1)
				go func() {
					defer func() {
						pool <- struct{}{}
						wg.Done()
					}()
					work()
				}()
			default:
				break admit // budget exhausted
			}
		}
	}
	work()
	wg.Wait()
}

// ForErr is For over fallible legs. Every leg runs (no short-circuiting, so
// result slices the legs fill stay deterministic); the returned error is the
// lowest-indexed one, matching what a serial loop would have hit first.
func ForErr(jobs, n int, fn func(i int) error) error {
	return ForErrCtx(context.Background(), jobs, n, fn)
}

// ForErrCtx is ForErr under a context: cancelling ctx abandons every leg not
// yet started (each records ctx.Err() at its index) while running legs
// finish. The returned error is still the lowest-indexed one, so a leg that
// failed before the cancellation wins over the cancellation itself, exactly
// as a serial loop would have reported it.
func ForErrCtx(ctx context.Context, jobs, n int, fn func(i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	errs := make([]error, n)
	forCtx(ctx, jobs, n, fn, errs)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
