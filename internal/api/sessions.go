package api

import (
	"sync"

	"anyopt"
	"anyopt/internal/core/discovery"
)

// sessionPool hands out measure sessions: reusable discovery sessions serving
// ad-hoc /v1/measure experiments. Each session is a private Discovery — and
// with it a private list of warm simulators (reset in place through
// Sim.Reset) — so concurrent measure requests never share a simulator and a
// session reused across requests keeps its sims warm. Sessions are created
// on demand (one per concurrent measure request at peak) and recycled; the
// pool never shrinks, mirroring how a Discovery keeps its workers'
// simulators warm during a campaign. The mutex guards only the free list —
// it is held for a pointer push/pop, never across an experiment.
type sessionPool struct {
	sys  *anyopt.System
	mu   sync.Mutex
	free []*discovery.Discovery
	// all tracks every session ever built, for metrics aggregation.
	all []*discovery.Discovery
	// created counts sessions ever built; it doubles as the nonce-base
	// allocator below.
	created uint64
}

func newSessionPool(sys *anyopt.System) *sessionPool {
	return &sessionPool{sys: sys}
}

// sessionNonceStride spaces the jitter-nonce ranges of measure sessions. The
// campaign itself draws nonces from zero, so session n starting at
// (n+1)<<32 keeps every ad-hoc experiment's jitter stream disjoint from the
// campaign's and from every other session's — experiments stay mutually
// independent without any cross-session coordination.
const sessionNonceStride = uint64(1) << 32

// acquire pops a warm session or builds a fresh one.
func (p *sessionPool) acquire() *discovery.Discovery {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return s
	}
	p.created++
	id := p.created
	p.mu.Unlock()

	d := discovery.New(p.sys.TB, p.sys.Options().Discovery)
	d.SeedNonces(id * sessionNonceStride)
	p.mu.Lock()
	p.all = append(p.all, d)
	p.mu.Unlock()
	return d
}

// release returns a session to the pool.
func (p *sessionPool) release(d *discovery.Discovery) {
	p.mu.Lock()
	p.free = append(p.free, d)
	p.mu.Unlock()
}

// simPoolStats sums warm-simulator reuse across every session ever created.
// The per-session counters are atomics, so in-flight sessions are safe to
// read; the mutex only pins the session list.
func (p *sessionPool) simPoolStats() (hits, misses uint64) {
	p.mu.Lock()
	sessions := p.all
	p.mu.Unlock()
	for _, d := range sessions {
		h, m := d.SimPoolStats()
		hits += h
		misses += m
	}
	return hits, misses
}

// sessionCount returns how many sessions exist and how many are idle.
func (p *sessionPool) sessionCount() (created uint64, idle int) {
	p.mu.Lock()
	created, idle = p.created, len(p.free)
	p.mu.Unlock()
	return created, idle
}
