package netsim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"anyopt/internal/topology"
)

// recorder is the engine's Handler in these tests: it logs each event's fire
// time and payload, then runs onFire (when set) from inside the event.
type recorder struct {
	e      *Engine
	at     []time.Duration
	got    []Payload
	onFire func(p *Payload)
}

// newEngine returns an engine whose Handler is a fresh recorder.
func newEngine() (*Engine, *recorder) {
	r := &recorder{}
	r.e = &Engine{Handler: r}
	return r.e, r
}

func (r *recorder) HandleEvent(p *Payload) {
	r.at = append(r.at, r.e.Now())
	c := *p
	// The payload is only valid during the call: copy the path out.
	c.Path = append([]topology.ASN(nil), p.Path...)
	r.got = append(r.got, c)
	if r.onFire != nil {
		r.onFire(p)
	}
}

// prefixes lists the Prefix of every fired event, in firing order.
func (r *recorder) prefixes() []int {
	out := make([]int, len(r.got))
	for i, p := range r.got {
		out[i] = int(p.Prefix)
	}
	return out
}

func TestScheduleAndRunOrder(t *testing.T) {
	e, r := newEngine()
	e.Schedule(30*time.Millisecond, Payload{Prefix: 3})
	e.Schedule(10*time.Millisecond, Payload{Prefix: 1})
	e.Schedule(20*time.Millisecond, Payload{Prefix: 2})
	if n := e.Run(); n != 3 {
		t.Fatalf("Run executed %d events, want 3", n)
	}
	got, want := r.prefixes(), []int{1, 2, 3}
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
	e, r := newEngine()
	for i := 0; i < 50; i++ {
		e.Schedule(time.Second, Payload{Prefix: int32(i)})
	}
	e.Run()
	if got := r.prefixes(); !sort.IntsAreSorted(got) || len(got) != 50 {
		t.Fatalf("equal-timestamp events not FIFO: %v", got)
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	e, r := newEngine()
	r.onFire = func(p *Payload) {
		if p.Prefix == 1 {
			e.After(50*time.Millisecond, Payload{Prefix: 2})
		}
	}
	e.Schedule(100*time.Millisecond, Payload{Prefix: 1})
	e.Run()
	if len(r.at) != 2 || r.at[1] != 150*time.Millisecond {
		t.Errorf("nested After fired at %v, want [100ms 150ms]", r.at)
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e, _ := newEngine()
	e.Schedule(10*time.Millisecond, Payload{Prefix: 1})
	e.Schedule(20*time.Millisecond, Payload{Prefix: 2})
	e.Schedule(30*time.Millisecond, Payload{Prefix: 3})
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
	e, _ := newEngine()
	e.RunUntil(5 * time.Second)
	if e.Now() != 5*time.Second {
		t.Errorf("Now = %v, want 5s", e.Now())
	}
}

func TestRunFor(t *testing.T) {
	e, _ := newEngine()
	e.Schedule(time.Second, Payload{})
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
	e, _ := newEngine()
	e.Schedule(time.Second, Payload{})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Schedule(time.Millisecond, Payload{})
}

func TestNegativeAfterPanics(t *testing.T) {
	e, _ := newEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("negative After did not panic")
		}
	}()
	e.After(-time.Second, Payload{})
}

// TestTypedEventDispatch: the op byte and every payload field reach the
// engine's Handler unchanged, in firing order.
func TestTypedEventDispatch(t *testing.T) {
	e, r := newEngine()
	link := &topology.Link{ID: 4}
	path := []topology.ASN{10, 20, 30}
	first := Payload{Link: link, Path: path, Dst: 42, Prefix: 7, MED: 5, Op: 3}
	second := Payload{Dst: 99, Prefix: 3, MED: -1, Op: 255}
	e.Schedule(20*time.Millisecond, first)
	e.After(10*time.Millisecond, second)
	if n := e.Run(); n != 2 {
		t.Fatalf("Run executed %d events, want 2", n)
	}
	if len(r.at) != 2 || r.at[0] != 10*time.Millisecond || r.at[1] != 20*time.Millisecond {
		t.Fatalf("fire times = %v, want [10ms 20ms]", r.at)
	}
	got := r.got[0]
	if got.Link != nil || got.Path != nil || got.Dst != 99 || got.Prefix != 3 || got.MED != -1 || got.Op != 255 {
		t.Errorf("first payload = %+v, want %+v", got, second)
	}
	got = r.got[1]
	if got.Link != link || len(got.Path) != 3 || got.Path[2] != 30 ||
		got.Dst != 42 || got.Prefix != 7 || got.MED != 5 || got.Op != 3 {
		t.Errorf("second payload = %+v, want %+v", got, first)
	}
}

// Property: for any random set of delays, events fire in nondecreasing time
// order and all fire exactly once.
func TestPropertyEventsFireInOrder(t *testing.T) {
	f := func(delaysMS []uint16) bool {
		e, r := newEngine()
		for _, d := range delaysMS {
			e.Schedule(time.Duration(d)*time.Millisecond, Payload{})
		}
		e.Run()
		if len(r.at) != len(delaysMS) {
			return false
		}
		for i := 1; i < len(r.at); i++ {
			if r.at[i] < r.at[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: two engines fed the same schedule execute identically. Each
// event carries its nesting depth in Prefix and may schedule a deeper one.
func TestPropertyDeterminism(t *testing.T) {
	run := func(seed int64) []time.Duration {
		rng := rand.New(rand.NewSource(seed))
		e, r := newEngine()
		add := func(depth int32) {
			if depth > 3 {
				return
			}
			e.After(time.Duration(rng.Intn(1000))*time.Millisecond, Payload{Prefix: depth})
		}
		r.onFire = func(p *Payload) {
			if rng.Intn(2) == 0 {
				add(p.Prefix + 1)
			}
		}
		for i := 0; i < 20; i++ {
			add(0)
		}
		e.Run()
		return r.at
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

type noopHandler struct{}

func (noopHandler) HandleEvent(*Payload) {}

func TestSteadyStateSchedulingDoesNotAllocate(t *testing.T) {
	e := &Engine{Handler: noopHandler{}}
	// Warm the pool past its high-water mark.
	for i := 0; i < 2*eventBlock; i++ {
		e.Schedule(e.Now(), Payload{})
	}
	e.Run()
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < eventBlock; i++ {
			e.After(time.Duration(i)*time.Millisecond, Payload{Prefix: int32(i)})
		}
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule+run allocated %.1f times per round, want 0", allocs)
	}
}

func TestReset(t *testing.T) {
	e, r := newEngine()
	e.Schedule(time.Second, Payload{Prefix: -1})
	e.Schedule(2*time.Second, Payload{Prefix: -2})
	e.Step()
	e.Reset()
	if len(r.got) != 1 {
		t.Fatalf("fired = %d before Reset assertions, want 1", len(r.got))
	}
	if e.Now() != 0 || e.Steps() != 0 || e.Pending() != 0 {
		t.Fatalf("after Reset: Now=%v Steps=%d Pending=%d, want all zero", e.Now(), e.Steps(), e.Pending())
	}
	// The discarded pending event must not fire, and the reused engine must
	// behave exactly like a fresh one: FIFO order restarts from sequence 0.
	r.got = nil
	for i := 0; i < 10; i++ {
		e.Schedule(time.Millisecond, Payload{Prefix: int32(i)})
	}
	e.Run()
	got := r.prefixes()
	if len(got) != 10 {
		t.Fatalf("discarded event fired after Reset: %v", got)
	}
	if !sort.IntsAreSorted(got) {
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
		e, r := newEngine()
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
			e.Schedule(at, Payload{Prefix: int32(seq)})
			live = append(live, planned{at, seq})
			seq++
		}
		for len(live) > 0 {
			fire()
		}
		e.Run()
		got := r.prefixes()
		if len(got) != len(fired) {
			return false
		}
		for i, p := range fired {
			if r.at[i] != p.at || got[i] != p.seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	e := &Engine{Handler: noopHandler{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 1000; j++ {
			e.Schedule(e.Now()+time.Duration(j%97)*time.Millisecond, Payload{Prefix: int32(j)})
		}
		e.Run()
	}
}
