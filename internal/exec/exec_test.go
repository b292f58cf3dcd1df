package exec

import (
	"os"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		p := New(workers)
		const n = 1000
		hits := make([]int32, n)
		p.ForEach(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, h)
			}
		}
	}
}

func TestForEachZeroAndNegative(t *testing.T) {
	p := New(4)
	called := false
	p.ForEach(0, func(int) { called = true })
	p.ForEach(-3, func(int) { called = true })
	if called {
		t.Fatal("fn called for non-positive n")
	}
}

func TestForEachPropagatesPanic(t *testing.T) {
	p := New(4)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic not propagated")
		}
	}()
	p.ForEach(64, func(i int) {
		if i == 17 {
			panic("boom")
		}
	})
}

func TestForEachSerialPanic(t *testing.T) {
	p := New(1)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic not propagated on serial path")
		}
	}()
	p.ForEach(4, func(i int) {
		if i == 2 {
			panic("boom")
		}
	})
}

func TestNewDefaults(t *testing.T) {
	t.Setenv(WorkersEnv, "")
	os.Unsetenv(WorkersEnv)
	if got := New(0).workers; got != runtime.GOMAXPROCS(0) {
		t.Fatalf("New(0).workers = %d, want GOMAXPROCS=%d", got, runtime.GOMAXPROCS(0))
	}
	if got := New(3).workers; got != 3 {
		t.Fatalf("New(3).workers = %d, want 3", got)
	}
}

func TestWorkersEnvOverride(t *testing.T) {
	t.Setenv(WorkersEnv, "7")
	if got := DefaultWorkers(); got != 7 {
		t.Fatalf("DefaultWorkers() = %d, want 7", got)
	}
	t.Setenv(WorkersEnv, "not-a-number")
	if got := DefaultWorkers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("DefaultWorkers() with garbage env = %d, want GOMAXPROCS", got)
	}
	t.Setenv(WorkersEnv, "-2")
	if got := DefaultWorkers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("DefaultWorkers() with negative env = %d, want GOMAXPROCS", got)
	}
}
