package netsim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"anyopt/internal/topology"
)

func TestScheduleAndRunOrder(t *testing.T) {
	var e Engine
	var got []int
	e.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	e.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	e.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	if n := e.Run(); n != 3 {
		t.Fatalf("Run executed %d events, want 3", n)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30*time.Millisecond {
		t.Errorf("Now = %v, want 30ms", e.Now())
	}
}

func TestFIFOAmongEqualTimestamps(t *testing.T) {
	var e Engine
	var got []int
	for i := 0; i < 50; i++ {
		i := i
		e.Schedule(time.Second, func() { got = append(got, i) })
	}
	e.Run()
	if !sort.IntsAreSorted(got) {
		t.Fatalf("equal-timestamp events not FIFO: %v", got)
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	var e Engine
	var fired time.Duration
	e.Schedule(100*time.Millisecond, func() {
		e.After(50*time.Millisecond, func() { fired = e.Now() })
	})
	e.Run()
	if fired != 150*time.Millisecond {
		t.Errorf("nested After fired at %v, want 150ms", fired)
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	var e Engine
	var got []int
	e.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	e.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	e.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	n := e.RunUntil(20 * time.Millisecond)
	if n != 2 {
		t.Fatalf("RunUntil executed %d, want 2", n)
	}
	if e.Now() != 20*time.Millisecond {
		t.Errorf("Now = %v, want 20ms", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
}

func TestRunUntilAdvancesClockWithoutEvents(t *testing.T) {
	var e Engine
	e.RunUntil(5 * time.Second)
	if e.Now() != 5*time.Second {
		t.Errorf("Now = %v, want 5s", e.Now())
	}
}

func TestRunFor(t *testing.T) {
	var e Engine
	e.Schedule(time.Second, func() {})
	e.RunFor(500 * time.Millisecond)
	if e.Now() != 500*time.Millisecond {
		t.Errorf("Now = %v, want 500ms", e.Now())
	}
	e.RunFor(time.Second)
	if e.Pending() != 0 {
		t.Errorf("event at 1s did not fire by 1.5s")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	var e Engine
	e.Schedule(time.Second, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Schedule(time.Millisecond, func() {})
}

func TestNilRunPanics(t *testing.T) {
	var e Engine
	defer func() {
		if recover() == nil {
			t.Fatal("nil run did not panic")
		}
	}()
	e.Schedule(0, nil)
}

func TestNegativeAfterPanics(t *testing.T) {
	var e Engine
	defer func() {
		if recover() == nil {
			t.Fatal("negative After did not panic")
		}
	}()
	e.After(-time.Second, func() {})
}

// Property: for any random set of delays, events fire in nondecreasing time
// order and all fire exactly once.
func TestPropertyEventsFireInOrder(t *testing.T) {
	f := func(delaysMS []uint16) bool {
		var e Engine
		var fired []time.Duration
		for _, d := range delaysMS {
			at := time.Duration(d) * time.Millisecond
			e.Schedule(at, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(delaysMS) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: two engines fed the same schedule execute identically.
func TestPropertyDeterminism(t *testing.T) {
	run := func(seed int64) []time.Duration {
		rng := rand.New(rand.NewSource(seed))
		var e Engine
		var trace []time.Duration
		var add func(depth int)
		add = func(depth int) {
			if depth > 3 {
				return
			}
			e.After(time.Duration(rng.Intn(1000))*time.Millisecond, func() {
				trace = append(trace, e.Now())
				if rng.Intn(2) == 0 {
					add(depth + 1)
				}
			})
		}
		for i := 0; i < 20; i++ {
			add(0)
		}
		e.Run()
		return trace
	}
	for seed := int64(0); seed < 10; seed++ {
		a, b := run(seed), run(seed)
		if len(a) != len(b) {
			t.Fatalf("seed %d: trace lengths differ: %d vs %d", seed, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: traces diverge at %d: %v vs %v", seed, i, a[i], b[i])
			}
		}
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var e Engine
		for j := 0; j < 1000; j++ {
			e.Schedule(time.Duration(j%97)*time.Millisecond, func() {})
		}
		e.Run()
	}
}

// recorder implements Handler, logging each payload it receives.
type recorder struct {
	at     []time.Duration
	prefix []int32
	dst    []topology.ASN
	med    []int32
	paths  [][]topology.ASN
	engine *Engine
}

func (r *recorder) HandleEvent(p *Payload) {
	r.at = append(r.at, r.engine.Now())
	r.prefix = append(r.prefix, p.Prefix)
	r.dst = append(r.dst, p.Dst)
	r.med = append(r.med, p.MED)
	// The payload is only valid during the call: copy the path out.
	r.paths = append(r.paths, append([]topology.ASN(nil), p.Path...))
}

func TestTypedEventDispatch(t *testing.T) {
	var e Engine
	r := &recorder{engine: &e}
	path := []topology.ASN{10, 20, 30}
	e.ScheduleEvent(20*time.Millisecond, r, Payload{Prefix: 7, Dst: 42, MED: 5, Path: path})
	e.AfterEvent(10*time.Millisecond, r, Payload{Prefix: 3, Dst: 99, MED: -1})
	if n := e.Run(); n != 2 {
		t.Fatalf("Run executed %d events, want 2", n)
	}
	if len(r.at) != 2 || r.at[0] != 10*time.Millisecond || r.at[1] != 20*time.Millisecond {
		t.Fatalf("fire times = %v, want [10ms 20ms]", r.at)
	}
	if r.prefix[0] != 3 || r.dst[0] != 99 || r.med[0] != -1 || r.paths[0] != nil {
		t.Errorf("first payload = prefix %d dst %d med %d path %v", r.prefix[0], r.dst[0], r.med[0], r.paths[0])
	}
	if r.prefix[1] != 7 || r.dst[1] != 42 || r.med[1] != 5 || len(r.paths[1]) != 3 {
		t.Errorf("second payload = prefix %d dst %d med %d path %v", r.prefix[1], r.dst[1], r.med[1], r.paths[1])
	}
}

func TestTypedAndClosureEventsShareOrdering(t *testing.T) {
	var e Engine
	r := &recorder{engine: &e}
	var order []string
	e.ScheduleEvent(time.Second, r, Payload{Prefix: 1})
	e.Schedule(time.Second, func() { order = append(order, "closure") })
	e.ScheduleEvent(time.Second, r, Payload{Prefix: 2})
	e.Run()
	// FIFO among equal timestamps must hold across both flavors: the typed
	// event scheduled first fires first, the closure second, typed third.
	if len(r.at) != 2 || len(order) != 1 {
		t.Fatalf("dispatch counts: typed %d closure %d", len(r.at), len(order))
	}
	if r.prefix[0] != 1 || r.prefix[1] != 2 {
		t.Fatalf("typed order = %v, want [1 2]", r.prefix)
	}
}

func TestNilHandlerPanics(t *testing.T) {
	var e Engine
	defer func() {
		if recover() == nil {
			t.Fatal("nil handler did not panic")
		}
	}()
	e.ScheduleEvent(0, nil, Payload{})
}

func TestSteadyStateSchedulingDoesNotAllocate(t *testing.T) {
	var e Engine
	r := &recorder{engine: &e}
	// Warm the pool past its high-water mark.
	for i := 0; i < 2*eventBlock; i++ {
		e.ScheduleEvent(e.Now(), r, Payload{})
	}
	e.Run()
	r.at, r.prefix, r.dst, r.med, r.paths = nil, nil, nil, nil, nil
	h := noopHandler{}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < eventBlock; i++ {
			e.AfterEvent(time.Duration(i)*time.Millisecond, h, Payload{Prefix: int32(i)})
		}
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule+run allocated %.1f times per round, want 0", allocs)
	}
}

type noopHandler struct{}

func (noopHandler) HandleEvent(*Payload) {}

func TestReset(t *testing.T) {
	var e Engine
	fired := 0
	e.Schedule(time.Second, func() { fired++ })
	e.Schedule(2*time.Second, func() { fired++ })
	e.Step()
	e.Reset()
	if fired != 1 {
		t.Fatalf("fired = %d before Reset assertions, want 1", fired)
	}
	if e.Now() != 0 || e.Steps() != 0 || e.Pending() != 0 {
		t.Fatalf("after Reset: Now=%v Steps=%d Pending=%d, want all zero", e.Now(), e.Steps(), e.Pending())
	}
	// The discarded pending event must not fire, and the reused engine must
	// behave exactly like a fresh one: FIFO order restarts from sequence 0.
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Millisecond, func() { got = append(got, i) })
	}
	e.Run()
	if fired != 1 {
		t.Fatalf("discarded event fired after Reset")
	}
	if !sort.IntsAreSorted(got) || len(got) != 10 {
		t.Fatalf("post-Reset FIFO order broken: %v", got)
	}
	if e.Now() != time.Millisecond {
		t.Errorf("post-Reset Now = %v, want 1ms", e.Now())
	}
}

// Property: the 4-ary heap agrees with a sort-based oracle on arbitrary
// interleavings of schedules and steps. A step fires the earliest pending
// event (FIFO among equal times) and advances the clock, so later schedules
// land relative to a moving Now.
func TestPropertyHeapMatchesOracle(t *testing.T) {
	f := func(ops []uint16) bool {
		var e Engine
		r := &recorder{engine: &e}
		type planned struct {
			at  time.Duration
			seq int
		}
		var live, fired []planned
		seq := 0
		// fire moves the oracle's earliest pending event to fired.
		fire := func() {
			k := 0
			for i, p := range live {
				if p.at < live[k].at || (p.at == live[k].at && p.seq < live[k].seq) {
					k = i
				}
			}
			fired = append(fired, live[k])
			live = append(live[:k], live[k+1:]...)
		}
		for _, op := range ops {
			if op%5 == 4 && len(live) > 0 {
				if !e.Step() {
					return false
				}
				fire()
				continue
			}
			at := e.Now() + time.Duration(op%97)*time.Millisecond
			e.ScheduleEvent(at, r, Payload{Prefix: int32(seq)})
			live = append(live, planned{at, seq})
			seq++
		}
		for len(live) > 0 {
			fire()
		}
		e.Run()
		if len(r.prefix) != len(fired) {
			return false
		}
		for i, p := range fired {
			if r.at[i] != p.at || r.prefix[i] != int32(p.seq) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleRunTyped(b *testing.B) {
	var e Engine
	h := noopHandler{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 1000; j++ {
			e.ScheduleEvent(e.Now()+time.Duration(j%97)*time.Millisecond, h, Payload{Prefix: int32(j)})
		}
		e.Run()
	}
}
