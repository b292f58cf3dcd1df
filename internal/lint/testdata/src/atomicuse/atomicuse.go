// Package atomicuse is an anyoptlint self-test fixture for the atomic
// discipline check: sync/atomic fields may be touched only through their
// Load/Store/Add methods, and guarded fields (snap, gen — the fixture mirror
// of System.snap) mutate only inside publish.
package atomicuse

import "sync/atomic"

// Sys mirrors anyopt.System: a guarded snapshot pointer and generation
// counter, plus an unguarded metrics counter.
type Sys struct {
	snap atomic.Pointer[int]
	gen  atomic.Uint64
	hits atomic.Uint64
}

// publish is the sanctioned write point for snap and gen.
func publish(s *Sys, v *int) uint64 {
	s.snap.Store(v)
	return s.gen.Add(1)
}

// read shows the free side of the discipline: Load anywhere.
func read(s *Sys) *int {
	return s.snap.Load()
}

func rogueStore(s *Sys, v *int) {
	s.snap.Store(v) // want "outside its writer set"
}

func rogueSwap(s *Sys, v *int) *int {
	return s.snap.Swap(v) // want "outside its writer set"
}

func rogueBump(s *Sys) uint64 {
	return s.gen.Add(1) // want "outside its writer set"
}

// counters shows that unguarded atomics accept mutators anywhere — the
// discipline is about method use, not ownership, unless a guard says so.
func counters(s *Sys) uint64 {
	s.hits.Add(1)
	return s.hits.Load()
}

func plainUses(s *Sys) {
	p := &s.hits // want "accessed outside the atomic"
	_ = p
	v := s.hits // want "accessed outside the atomic"
	_ = v
	f := s.snap.Load // want "accessed outside the atomic"
	_ = f
}

// suppressedStore exercises the escape hatch.
func suppressedStore(s *Sys, v *int) {
	//lint:mutinvariant fixture exercises the escape hatch
	s.snap.Store(v)
}

var _ = read
var _ = publish
var _ = counters
