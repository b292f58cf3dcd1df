package exec

import (
	"os"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestNegativeWorkersSelectsDefault(t *testing.T) {
	t.Setenv(WorkersEnv, "")
	os.Unsetenv(WorkersEnv)
	if got := New(-5).workers; got != runtime.GOMAXPROCS(0) {
		t.Fatalf("New(-5).workers = %d, want GOMAXPROCS=%d", got, runtime.GOMAXPROCS(0))
	}
	t.Setenv(WorkersEnv, "3")
	if got := New(-1).workers; got != 3 {
		t.Fatalf("New(-1).workers with %s=3 = %d, want 3", WorkersEnv, got)
	}
}

// TestForEachUnderContention drives far more jobs than workers through the
// shared index counter with every job touching both a shared atomic and an
// index-distinct slot. Run with -race (the Makefile's race target does) this
// is the pool's data-race certificate: the only sharing is the counter.
func TestForEachUnderContention(t *testing.T) {
	const n = 20000
	p := New(8)
	var calls atomic.Int64
	out := make([]int64, n)
	p.ForEach(n, func(i int) {
		calls.Add(1)
		out[i] = int64(i) * 3
	})
	if got := calls.Load(); got != n {
		t.Fatalf("fn ran %d times, want %d", got, n)
	}
	for i, v := range out {
		if v != int64(i)*3 {
			t.Fatalf("out[%d] = %d, want %d", i, v, int64(i)*3)
		}
	}
}
