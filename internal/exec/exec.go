// Package exec is the parallel experiment executor: a worker pool that fans
// independent jobs across OS threads while keeping results byte-identical to
// a serial run.
//
// AnyOpt's measurement campaign is hundreds of BGP experiments — singleton
// announcements, order-controlled pairwise runs, deployment verifications —
// and every one of them is independent by construction: each runs on its own
// bgp.Sim with its own jitter nonce, exactly as the real campaign isolates
// experiments on separate test prefixes hours apart (§4.5). The executor
// exploits that independence the way the paper exploits parallel prefixes:
// all inputs (nonces, noise seeds) are assigned deterministically at
// submission time, before any work is scheduled, so the outcome of a job
// cannot depend on which worker runs it or in what order jobs finish.
//
// The pool is deliberately minimal: no job queue outliving a call, no shared
// state between jobs, and a strictly serial fallback when one worker (or one
// job) makes goroutines pointless — the serial path runs the exact same code
// with zero scheduling overhead.
package exec

import (
	"context"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// WorkersEnv names the environment variable that overrides the default
// worker count for every pool created with workers <= 0.
const WorkersEnv = "ANYOPT_WORKERS"

// DefaultWorkers returns the executor's default parallelism: ANYOPT_WORKERS
// when set to a positive integer, otherwise GOMAXPROCS.
func DefaultWorkers() int {
	if s := os.Getenv(WorkersEnv); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// Pool fans independent jobs across a fixed number of workers.
type Pool struct {
	workers int
}

// New creates a pool with the given worker count; workers <= 0 selects
// DefaultWorkers.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	return &Pool{workers: workers}
}

// ForEach runs fn(i) for every i in [0, n) and returns when all calls have
// completed. Calls must be mutually independent and may only write to
// index-distinct locations; under those rules the result is identical to the
// serial loop `for i := 0; i < n; i++ { fn(i) }`.
//
// It is ForEachCtx with a context that is never canceled and calls that never
// fail, so every index runs.
func (p *Pool) ForEach(n int, fn func(i int)) {
	p.ForEachCtx(context.Background(), n, func(_ context.Context, i int) error {
		fn(i)
		return nil
	})
}

// ForEachCtx is the pool's one worker loop: it runs fn(ctx, i) for every i in
// [0, n), stops handing out new indices once ctx is canceled or any call
// returns an error, and returns the first error by index order (ties broken
// toward the lowest index so the result does not depend on worker timing for
// a fixed input). In-flight calls are not interrupted — fn must watch ctx
// itself if an individual job can block — but the queue drains immediately,
// which is what lets a failed campaign abort instead of running every
// remaining experiment.
//
// With one worker (or one job) fn runs inline on the caller's goroutine.
// Otherwise min(workers, n) goroutines pull indices from a shared atomic
// counter; a panic in any call is re-raised on the caller after the
// remaining workers drain.
//
// When every call succeeds and ctx was canceled before all indices ran,
// ForEachCtx returns ctx.Err().
func (p *Pool) ForEachCtx(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers := p.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next     atomic.Int64
		stopped  atomic.Bool
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstIdx int = -1
		firstErr error
		panicVal any
	)
	record := func(i int, err error) {
		mu.Lock()
		if firstIdx < 0 || i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
		stopped.Store(true)
	}
	worker := func() {
		defer wg.Done()
		for {
			if stopped.Load() || ctx.Err() != nil {
				return
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						mu.Lock()
						if panicVal == nil {
							panicVal = r
						}
						mu.Unlock()
						stopped.Store(true)
					}
				}()
				if err := fn(ctx, i); err != nil {
					record(i, err)
				}
			}()
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker()
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
	if firstErr != nil {
		return firstErr
	}
	// No fn failed: workers that bailed early did so because the context
	// was canceled, which reports itself here.
	return ctx.Err()
}
