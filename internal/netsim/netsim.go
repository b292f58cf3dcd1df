// Package netsim provides a deterministic discrete-event simulation engine.
//
// The engine drives the BGP route-propagation simulator: every route
// advertisement, withdrawal, link failure and scheduled announcement is an
// event at a virtual timestamp. Events fire in (time, sequence) order, so two
// runs with the same inputs produce byte-identical traces. Virtual time is a
// time.Duration offset from the simulation epoch; no wall-clock time is ever
// consulted, which lets a simulated "two hours between BGP experiments"
// complete in microseconds of real time.
//
// An event is a typed Payload and nothing else: the engine has one Handler,
// set by its owner, and hands every fired payload to it. Its Op byte is the
// handler's to read. Events allocate nothing in steady state — fired events
// return to an intrusive free list and are reused by later schedules.
//
// Scheduling returns no handle and nothing cancels an event: a queued event
// fires, or Reset discards it, so the heap tracks no per-event position.
package netsim

import (
	"fmt"
	"time"

	"anyopt/internal/topology"
)

// Payload is the typed cargo of an event: for the BGP simulator, one update
// (or withdrawal) in flight on a link, or an operation scheduled on a link.
// The engine does not interpret it; it is handed to the engine's Handler.
type Payload struct {
	// Link is the link the update travels on, or the operation acts on.
	Link *topology.Link
	// Path is the announced AS path; nil marks a withdrawal.
	Path []topology.ASN
	// Dst is the AS receiving the update.
	Dst topology.ASN
	// Prefix identifies the announced prefix.
	Prefix int32
	// MED is the multi-exit discriminator carried by the update.
	MED int32
	// Op says what the event does; only the Handler reads it.
	Op uint8
}

// Handler consumes an event when it fires. The *Payload points into pooled
// event storage: it is valid only for the duration of the call and must not
// be retained.
type Handler interface {
	HandleEvent(p *Payload)
}

// event is a unit of work scheduled on the Engine. Events are pooled: once
// one fires the engine recycles it for a future schedule.
type event struct {
	at      time.Duration // virtual time at which the event fires
	payload Payload

	seq  uint64 // tie-breaker: FIFO among events with equal at
	free *event // intrusive free-list link while recycled
}

// eventBlock is how many pooled events are carved per allocation. Convergence
// bursts grow the pool a few block at a time; after the high-water mark,
// scheduling never allocates.
const eventBlock = 64

// Engine is a deterministic discrete-event scheduler.
//
// The zero value with Handler set is ready to use. Engine is not safe for
// concurrent use; the simulation model is single-threaded by design so that
// event ordering — which the BGP arrival-order tie-breaker depends on — is
// reproducible.
type Engine struct {
	// Handler receives every event the engine fires.
	Handler Handler

	queue    []*event // 4-ary min-heap on (at, seq)
	freeList *event
	now      time.Duration
	nextSeq  uint64
	steps    uint64
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() uint64 { return e.steps }

// Pending returns the number of events waiting to fire.
func (e *Engine) Pending() int { return len(e.queue) }

// Schedule enqueues p to fire at absolute virtual time at. The payload is
// copied into pooled event storage, so the caller need not keep p alive.
// Scheduling in the past (before Now) is an error in the model and panics:
// it would make event order depend on scheduling order rather than
// timestamps.
func (e *Engine) Schedule(at time.Duration, p Payload) {
	if at < e.now {
		panic(fmt.Sprintf("netsim: Schedule at %v before now %v", at, e.now))
	}
	ev := e.alloc()
	ev.at = at
	ev.payload = p
	ev.seq = e.nextSeq
	e.nextSeq++
	e.push(ev)
}

// After enqueues p to fire d after the current virtual time.
func (e *Engine) After(d time.Duration, p Payload) {
	if d < 0 {
		panic(fmt.Sprintf("netsim: After with negative delay %v", d))
	}
	e.Schedule(e.now+d, p)
}

// Step fires the next pending event, advancing virtual time to its
// timestamp. It returns false when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.pop()
	e.now = ev.at
	e.steps++
	e.Handler.HandleEvent(&ev.payload)
	e.recycle(ev)
	return true
}

// Run executes events until the queue drains and returns the number executed.
func (e *Engine) Run() uint64 {
	start := e.steps
	for e.Step() {
	}
	return e.steps - start
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to deadline (even if no event fired exactly then). Events scheduled
// after deadline remain queued.
func (e *Engine) RunUntil(deadline time.Duration) uint64 {
	start := e.steps
	for len(e.queue) > 0 && e.queue[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.steps - start
}

// RunFor executes events for the next d of virtual time.
func (e *Engine) RunFor(d time.Duration) uint64 {
	return e.RunUntil(e.now + d)
}

// Reset returns the engine to its initial state — empty queue, virtual time
// zero, sequence and step counters zero — while keeping the queue's backing
// array and the event free list, so a reused engine schedules without
// allocating. Pending events are discarded (recycled, not fired).
func (e *Engine) Reset() {
	for i, ev := range e.queue {
		e.queue[i] = nil
		e.recycle(ev)
	}
	e.queue = e.queue[:0]
	e.now = 0
	e.nextSeq = 0
	e.steps = 0
}

// alloc takes an event from the free list, carving a fresh block when empty.
func (e *Engine) alloc() *event {
	if e.freeList == nil {
		block := make([]event, eventBlock)
		for i := range block {
			block[i].free = e.freeList
			e.freeList = &block[i]
		}
	}
	ev := e.freeList
	e.freeList = ev.free
	ev.free = nil
	return ev
}

// recycle clears an event's references (so pooled storage does not pin AS
// paths) and pushes it on the free list.
func (e *Engine) recycle(ev *event) {
	ev.payload = Payload{}
	ev.free = e.freeList
	e.freeList = ev
}

// The queue is a hand-rolled 4-ary min-heap on (at, seq). Relative to
// container/heap this removes the interface boxing per operation and halves
// the tree depth; sift-down compares at most four children per level, all in
// adjacent cache lines.
const heapArity = 4

func (e *Engine) less(i, j int) bool {
	a, b := e.queue[i], e.queue[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) swap(i, j int) {
	e.queue[i], e.queue[j] = e.queue[j], e.queue[i]
}

func (e *Engine) push(ev *event) {
	e.queue = append(e.queue, ev)
	e.up(len(e.queue) - 1)
}

func (e *Engine) pop() *event {
	ev := e.queue[0]
	last := len(e.queue) - 1
	if last > 0 {
		e.queue[0] = e.queue[last]
	}
	e.queue[last] = nil
	e.queue = e.queue[:last]
	if last > 0 {
		e.down(0)
	}
	return ev
}

func (e *Engine) up(i int) {
	for i > 0 {
		parent := (i - 1) / heapArity
		if !e.less(i, parent) {
			return
		}
		e.swap(i, parent)
		i = parent
	}
}

func (e *Engine) down(i int) {
	n := len(e.queue)
	for {
		first := heapArity*i + 1
		if first >= n {
			return
		}
		min := first
		end := first + heapArity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if e.less(c, min) {
				min = c
			}
		}
		if !e.less(min, i) {
			return
		}
		e.swap(i, min)
		i = min
	}
}
