package exec

import (
	"context"
	"sync"
	"sync/atomic"
)

// ForEachCtx is ForEach with cancellation: it runs fn(ctx, i) for every i in
// [0, n), stops handing out new indices once ctx is canceled or any call
// returns an error, and returns the first error by index order (ties broken
// toward the lowest index so the result does not depend on worker timing for
// a fixed input). In-flight calls are not interrupted — fn must watch ctx
// itself if an individual job can block — but the queue drains immediately,
// which is what lets a failed campaign abort instead of running every
// remaining experiment.
//
// When every call succeeds and ctx was canceled before all indices ran,
// ForEachCtx returns ctx.Err().
func (p *Pool) ForEachCtx(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if p.closed.Load() {
		panic("exec: ForEachCtx called on a closed Pool")
	}
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
