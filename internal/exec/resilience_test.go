package exec

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

func TestForEachCtxRunsAll(t *testing.T) {
	p := New(4)
	var count atomic.Int64
	err := p.ForEachCtx(context.Background(), 100, func(ctx context.Context, i int) error {
		count.Add(1)
		return nil
	})
	if err != nil {
		t.Fatalf("ForEachCtx: %v", err)
	}
	if count.Load() != 100 {
		t.Errorf("ran %d of 100", count.Load())
	}
}

func TestForEachCtxCancelStopsQueue(t *testing.T) {
	p := New(4)
	ctx, cancel := context.WithCancel(context.Background())
	var count atomic.Int64
	err := p.ForEachCtx(ctx, 10000, func(ctx context.Context, i int) error {
		if count.Add(1) == 5 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := count.Load(); n >= 10000 {
		t.Errorf("cancellation did not stop the queue: %d calls ran", n)
	}
}

func TestForEachCtxCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		p := New(workers)
		var count atomic.Int64
		err := p.ForEachCtx(ctx, 50, func(ctx context.Context, i int) error {
			count.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// A pre-canceled context may let at most a few already-started
		// workers through, never the whole batch.
		if n := count.Load(); n >= 50 {
			t.Errorf("workers=%d: %d calls ran under a canceled context", workers, n)
		}
	}
}

func TestForEachCtxFirstErrorByIndex(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	// Regardless of worker timing, the error from the lowest index wins.
	for trial := 0; trial < 20; trial++ {
		p := New(8)
		err := p.ForEachCtx(context.Background(), 64, func(ctx context.Context, i int) error {
			switch i {
			case 3:
				return errA
			case 40:
				return errB
			}
			return nil
		})
		if !errors.Is(err, errA) {
			t.Fatalf("trial %d: err = %v, want %v (lowest failing index)", trial, err, errA)
		}
	}
}

func TestForEachCtxPanicPropagates(t *testing.T) {
	p := New(4)
	defer func() {
		if r := recover(); r != "boom" {
			t.Errorf("recovered %v, want boom", r)
		}
	}()
	p.ForEachCtx(context.Background(), 16, func(ctx context.Context, i int) error {
		if i == 7 {
			panic("boom")
		}
		return nil
	})
	t.Fatal("panic did not propagate")
}

func TestForEachCtxSerialStopsOnError(t *testing.T) {
	p := New(1)
	sentinel := errors.New("stop")
	calls := 0
	err := p.ForEachCtx(context.Background(), 100, func(ctx context.Context, i int) error {
		calls++
		if i == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if calls != 3 {
		t.Errorf("serial path ran %d calls after the error, want 3 total", calls)
	}
}
