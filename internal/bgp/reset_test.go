package bgp

import (
	"reflect"
	"testing"
	"time"

	"anyopt/internal/topology"
)

// simSnapshot captures every externally observable routing output for prefix
// 0 — per-AS best routes, per-target forwarding results, convergence stats —
// plus the event-level counters that prove a replay ran the same simulation,
// not merely one with the same outcome.
type simSnapshot struct {
	best    map[topology.ASN]RouteInfo
	fwd     map[topology.ASN]ForwardResult
	routed  map[topology.ASN]bool
	stats   ConvergenceStats
	updates uint64
	steps   uint64
}

func snapshotSim(s *Sim, topo *topology.Topology) simSnapshot {
	snap := simSnapshot{
		best:    make(map[topology.ASN]RouteInfo, topo.NumASes()),
		fwd:     make(map[topology.ASN]ForwardResult, len(topo.Targets)),
		routed:  make(map[topology.ASN]bool, len(topo.Targets)),
		stats:   s.Stats(0),
		updates: s.Updates,
		steps:   s.Engine.Steps(),
	}
	for _, a := range topo.ASes() {
		if r := s.BestRoute(0, a.ASN); r != nil {
			snap.best[a.ASN] = *r
		}
	}
	for _, tg := range topo.Targets {
		res, ok := s.Forward(0, tg)
		snap.routed[tg.AS] = ok
		if ok {
			snap.fwd[tg.AS] = res
		}
	}
	return snap
}

// announceSpaced runs the standard spaced-announcement experiment: each site
// link announced six minutes after the previous one, then full convergence.
func announceSpaced(s *Sim, origin topology.ASN, links []*topology.Link) {
	for i, l := range links {
		s.AnnounceAt(time.Duration(i)*6*time.Minute, 0, origin, l.ID, 0)
	}
	s.Converge()
}

// dirtySession drives a session through a messy history — simultaneous
// announcements under a different jitter nonce, a link failure and
// restoration, a withdrawal — so any state Reset fails to clear has every
// chance to leak into the next experiment.
func dirtySession(s *Sim, origin topology.ASN, links []*topology.Link) {
	for _, l := range links {
		s.Announce(0, origin, l.ID, 1)
	}
	s.Converge()
	s.FailLink(links[0].ID)
	s.Converge()
	s.RestoreLink(links[0].ID)
	s.Converge()
	s.Withdraw(0, links[len(links)-1].ID)
	s.Converge()
}

// announceSimultaneous announces every site link at virtual time zero, which
// leaves arrival order to jitter and makes decision-process ties most common.
func announceSimultaneous(s *Sim, origin topology.ASN, links []*topology.Link) {
	for _, l := range links {
		s.Announce(0, origin, l.ID, 0)
	}
	s.Converge()
}

// TestResetReproducesFreshSim is the session-reuse acceptance test at the
// simulator level: a Sim dirtied by a full prior experiment and then Reset
// must replay a reference experiment with byte-identical routes, forwarding
// results, stats, and event counts — including a second reuse generation.
// The paper-scale simultaneous case is where arrival-order ties are densest,
// so it also pins that the decision process walks each Adj-RIB-In in the
// same (link-ID) order in a fresh and in a reused session.
func TestResetReproducesFreshSim(t *testing.T) {
	for _, tc := range []struct {
		name     string
		params   topology.Params
		announce func(*Sim, topology.ASN, []*topology.Link)
	}{
		{"test/spaced", topology.TestParams(), announceSpaced},
		{"paper/simultaneous", topology.DefaultParams(), announceSimultaneous},
	} {
		t.Run(tc.name, func(t *testing.T) { testResetReproducesFreshSim(t, tc.params, tc.announce) })
	}
}

func testResetReproducesFreshSim(t *testing.T, params topology.Params, announce func(*Sim, topology.ASN, []*topology.Link)) {
	cfgA := DefaultConfig()
	cfgA.JitterNonce = 42

	fresh, topo, origin, links := buildAnycast(t, params, cfgA, 1)
	announce(fresh, origin, links)
	want := snapshotSim(fresh, topo)
	if want.stats.ReachableASes == 0 || want.steps == 0 {
		t.Fatalf("reference experiment is degenerate: %+v", want.stats)
	}
	if want.stats.TiedBest == 0 {
		t.Fatalf("reference experiment has no tied decisions: %+v", want.stats)
	}

	// The reused session starts from a different configuration and a messy
	// history on the same topology.
	cfgB := DefaultConfig()
	cfgB.JitterNonce = 7
	cfgB.InteriorCostBucketKm = 0
	reused := New(topo, cfgB)
	dirtySession(reused, origin, links)

	for gen := 1; gen <= 2; gen++ {
		reused.Reset(cfgA)
		if reused.Engine.Pending() != 0 || reused.Engine.Now() != 0 || reused.Updates != 0 {
			t.Fatalf("gen %d: Reset left residue: pending=%d now=%v updates=%d",
				gen, reused.Engine.Pending(), reused.Engine.Now(), reused.Updates)
		}
		announce(reused, origin, links)
		got := snapshotSim(reused, topo)
		if !reflect.DeepEqual(want, got) {
			if !reflect.DeepEqual(want.best, got.best) {
				t.Errorf("gen %d: best routes diverged", gen)
			}
			if !reflect.DeepEqual(want.fwd, got.fwd) || !reflect.DeepEqual(want.routed, got.routed) {
				t.Errorf("gen %d: forwarding results diverged", gen)
			}
			if !reflect.DeepEqual(want.stats, got.stats) {
				t.Errorf("gen %d: stats diverged: %v vs %v", gen, want.stats, got.stats)
			}
			if want.updates != got.updates || want.steps != got.steps {
				t.Errorf("gen %d: event counts diverged: updates %d vs %d, steps %d vs %d",
					gen, want.updates, got.updates, want.steps, got.steps)
			}
			t.Fatalf("gen %d: Reset session diverged from fresh Sim", gen)
		}
		// Dirty it again so generation 2 starts from fresh residue.
		dirtySession(reused, origin, links)
	}
}

// TestResetReplacesConfig pins that Reset installs the new configuration
// rather than leaking the old one: a session Reset to a different jitter
// nonce must reproduce that nonce's fresh-Sim outcome, not its own previous
// one.
func TestResetReplacesConfig(t *testing.T) {
	run := func(nonce uint64) map[topology.ASN]topology.LinkID {
		cfg := DefaultConfig()
		cfg.JitterNonce = nonce
		s, topo, origin, links := buildAnycast(t, topology.TestParams(), cfg, 1)
		for _, l := range links {
			s.Announce(0, origin, l.ID, 0)
		}
		s.Converge()
		return s.CatchmentMap(0, topo.Targets)
	}
	want1, want2 := run(1), run(2)
	if reflect.DeepEqual(want1, want2) {
		t.Fatal("nonces 1 and 2 agree everywhere; config-leak test has no signal")
	}

	cfg := DefaultConfig()
	cfg.JitterNonce = 1
	s, topo, origin, links := buildAnycast(t, topology.TestParams(), cfg, 1)
	for _, nonce := range []uint64{1, 2, 1} {
		cfg.JitterNonce = nonce
		s.Reset(cfg)
		for _, l := range links {
			s.Announce(0, origin, l.ID, 0)
		}
		s.Converge()
		got := s.CatchmentMap(0, topo.Targets)
		want := want1
		if nonce == 2 {
			want = want2
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("nonce %d after Reset diverged from fresh Sim with that nonce", nonce)
		}
	}
}

// TestCatchmentEntryMatchesForward pins the memoized fast path to the
// reference walk: for every target, under spaced and simultaneous
// announcements and across a failure/restore cycle, CatchmentEntry must
// agree with Forward on (entry link, delay, reachability) — and repeated
// queries must agree with themselves once the caches are warm.
func TestCatchmentEntryMatchesForward(t *testing.T) {
	s, topo, origin, links := buildAnycast(t, topology.TestParams(), DefaultConfig(), 2)

	check := func(stage string) {
		t.Helper()
		for round := 0; round < 2; round++ { // cold then warm cache
			for _, tg := range topo.Targets {
				res, ok := s.Forward(0, tg)
				link, delay, ok2 := s.CatchmentEntry(0, tg)
				if ok != ok2 {
					t.Fatalf("%s round %d AS%d: Forward ok=%v, CatchmentEntry ok=%v", stage, round, tg.AS, ok, ok2)
				}
				if !ok {
					continue
				}
				if link != res.EntryLink || delay != res.Delay {
					t.Fatalf("%s round %d AS%d: CatchmentEntry (link=%d delay=%v) != Forward (link=%d delay=%v)",
						stage, round, tg.AS, link, delay, res.EntryLink, res.Delay)
				}
			}
		}
	}

	for i, l := range links {
		s.AnnounceAt(time.Duration(i)*6*time.Minute, 0, origin, l.ID, 0)
	}
	s.Converge()
	check("spaced")

	s.FailLink(links[0].ID)
	s.Converge()
	check("failed")

	s.RestoreLink(links[0].ID)
	s.Converge()
	check("restored")

	// Simultaneous announcements maximize ties, and with them multipath ASes
	// — the memoization's hardest (uncompressible) case.
	s.WithdrawAll(0)
	s.Converge()
	cfg := DefaultConfig()
	cfg.JitterNonce = 3
	s.Reset(cfg)
	for _, l := range links {
		s.Announce(0, origin, l.ID, 0)
	}
	s.Converge()
	check("simultaneous")
}
