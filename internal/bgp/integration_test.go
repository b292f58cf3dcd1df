package bgp

import (
	"testing"
	"time"

	"anyopt/internal/geo"
	"anyopt/internal/topology"
)

// buildAnycast attaches an origin AS with one site per given tier-1 to a
// generated topology and returns the sim plus the site links.
func buildAnycast(t testing.TB, p topology.Params, cfg Config, sitesPerT1 int) (*Sim, *topology.Topology, topology.ASN, []*topology.Link) {
	t.Helper()
	topo, err := topology.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	origin := topo.AddAS("anycast-net", topology.TierOrigin, geo.Coord{Lat: 42.36, Lon: -71.06})
	var links []*topology.Link
	for _, t1 := range topo.Tier1s() {
		for i := 0; i < sitesPerT1 && i < len(t1.PoPs); i++ {
			// Each site is colocated with the provider PoP it attaches to.
			origin.PoPs = append(origin.PoPs, t1.PoPs[i])
			links = append(links, topo.AddLink(origin.ASN, t1.ASN, topology.CustomerProvider, len(origin.PoPs)-1, i))
		}
	}
	return New(topo, cfg), topo, origin.ASN, links
}

func TestGlobalReachabilityAllSites(t *testing.T) {
	s, topo, origin, links := buildAnycast(t, topology.TestParams(), DefaultConfig(), 1)
	for _, l := range links {
		s.Announce(0, origin, l.ID, 0)
	}
	s.Converge()

	unreachable := 0
	for _, tg := range topo.Targets {
		if _, ok := s.Forward(0, tg); !ok {
			unreachable++
		}
	}
	if unreachable > 0 {
		t.Errorf("%d/%d targets cannot reach the anycast prefix announced at all tier-1s", unreachable, len(topo.Targets))
	}
}

func TestGlobalReachabilitySingleSite(t *testing.T) {
	// Announcing to a single tier-1 transit must still reach everyone —
	// that's what "transit provider for global reachability" means (§3.1).
	s, topo, origin, links := buildAnycast(t, topology.TestParams(), DefaultConfig(), 1)
	s.Announce(0, origin, links[0].ID, 0)
	s.Converge()
	for _, tg := range topo.Targets {
		if _, ok := s.Forward(0, tg); !ok {
			t.Fatalf("target %s (AS%d) unreachable with single-transit announcement", tg.Addr, tg.AS)
		}
	}
}

func TestConvergenceDeterministic(t *testing.T) {
	run := func() map[topology.ASN]topology.LinkID {
		s, topo, origin, links := buildAnycast(t, topology.TestParams(), DefaultConfig(), 1)
		for i, l := range links {
			s.AnnounceAt(time.Duration(i)*6*time.Minute, 0, origin, l.ID, 0)
		}
		s.Converge()
		return s.CatchmentMap(0, topo.Targets)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("catchment sizes differ: %d vs %d", len(a), len(b))
	}
	for asn, link := range a {
		if b[asn] != link {
			t.Fatalf("catchment differs for AS%d: %d vs %d", asn, link, b[asn])
		}
	}
}

func TestJitterNonceChangesRaceOutcomes(t *testing.T) {
	// Announcing all sites simultaneously leaves ties to processing-delay
	// races; different nonces must flip some catchments (this is what makes
	// "naive" pairwise experiments inconsistent in §5.1).
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
	a, b := run(1), run(2)
	diff := 0
	for asn, link := range a {
		if b[asn] != link {
			diff++
		}
	}
	if diff == 0 {
		t.Error("no catchment differences across jitter nonces; simultaneous announcements should race")
	}
	// But races must stay the minority: most clients have genuine preferences.
	if frac := float64(diff) / float64(len(a)); frac > 0.5 {
		t.Errorf("%.0f%% of catchments flipped across nonces; topology is all ties", frac*100)
	}
}

func TestSpacedAnnouncementsDrownJitter(t *testing.T) {
	// With announcements spaced 6 minutes apart (§5.1), jitter nonces must
	// not change outcomes: arrival order is globally controlled.
	run := func(nonce uint64) map[topology.ASN]topology.LinkID {
		cfg := DefaultConfig()
		cfg.JitterNonce = nonce
		s, topo, origin, links := buildAnycast(t, topology.TestParams(), cfg, 1)
		for i, l := range links {
			s.AnnounceAt(time.Duration(i)*6*time.Minute, 0, origin, l.ID, 0)
		}
		s.Converge()
		return s.CatchmentMap(0, topo.Targets)
	}
	a, b := run(1), run(2)
	diff := 0
	for asn, link := range a {
		if b[asn] != link {
			diff++
		}
	}
	if diff != 0 {
		t.Errorf("%d catchments changed across nonces despite 6-minute spacing", diff)
	}
}

// TestTheoremA1LocalPreferenceModel encodes Appendix A, Theorem A.1: in a
// policy-compliant network with no multipath, no deviant LOCAL_PREF, and a
// fixed announcement order, pairwise winners predict the winner for every
// subset. We verify winner-prediction directly: for random subsets, the
// pairwise-best site among the subset must equal the measured catchment.
func TestTheoremA1PairwisePredictsSubsets(t *testing.T) {
	p := topology.TestParams()
	p.FracMultipath = 0
	p.FracDeviant = 0

	// Pairwise experiments with controlled order: i announced first.
	catchment := func(enabled []int) map[topology.ASN]topology.LinkID {
		s, topo, origin, links := buildAnycast(t, p, DefaultConfig(), 1)
		for rank, idx := range enabled {
			s.AnnounceAt(time.Duration(rank)*6*time.Minute, 0, origin, links[idx].ID, 0)
		}
		s.Converge()
		return s.CatchmentMap(0, topo.Targets)
	}

	n := p.NumTier1
	// prefer[a][i][j] = true if client a prefers site i over j (i announced
	// before j, matching the subset announcement order below).
	type pair struct{ i, j int }
	wins := map[pair]map[topology.ASN]int{}
	s0, topo0, _, links0 := buildAnycast(t, p, DefaultConfig(), 1)
	_ = s0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			cm := catchment([]int{i, j})
			m := map[topology.ASN]int{}
			for asn, link := range cm {
				if link == links0[i].ID {
					m[asn] = i
				} else {
					m[asn] = j
				}
			}
			wins[pair{i, j}] = m
		}
	}

	// Subsets announced in index order (i < j ⇒ i first), matching the
	// pairwise experiments' order.
	subsets := [][]int{{0, 1, 2}, {1, 3, 4}, {0, 2, 4, 5}, {0, 1, 2, 3, 4, 5}}
	for _, sub := range subsets {
		cm := catchment(sub)
		mismatches, total := 0, 0
		for _, tg := range topo0.Targets {
			link, ok := cm[tg.AS]
			if !ok {
				continue
			}
			// Predicted winner: the subset element that beats all others in
			// pairwise comparisons.
			pred := -1
			for _, i := range sub {
				beatsAll := true
				for _, j := range sub {
					if i == j {
						continue
					}
					a, b := i, j
					if a > b {
						a, b = b, a
					}
					w := wins[pair{a, b}][tg.AS]
					if w != i {
						beatsAll = false
						break
					}
				}
				if beatsAll {
					pred = i
					break
				}
			}
			if pred < 0 {
				continue // cyclic (should be rare here); skip like the paper
			}
			total++
			if links0[pred].ID != link {
				mismatches++
			}
		}
		if total == 0 {
			t.Fatalf("subset %v: no predictable targets", sub)
		}
		if frac := float64(mismatches) / float64(total); frac > 0.02 {
			t.Errorf("subset %v: %.1f%% of predictable targets mispredicted (want ≤2%% under Theorem A.1 conditions)",
				sub, frac*100)
		}
	}
}

func TestUpdateCountReasonable(t *testing.T) {
	s, _, origin, links := buildAnycast(t, topology.TestParams(), DefaultConfig(), 1)
	for _, l := range links {
		s.Announce(0, origin, l.ID, 0)
	}
	s.Converge()
	if s.Updates == 0 {
		t.Fatal("no updates processed")
	}
	// Path-vector convergence should not blow up combinatorially.
	limit := uint64(200 * s.Topo.NumASes())
	if s.Updates > limit {
		t.Errorf("processed %d updates for %d ASes; possible convergence pathology", s.Updates, s.Topo.NumASes())
	}
}

func BenchmarkConvergeSixSites(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, _, origin, links := buildAnycast(b, topology.TestParams(), DefaultConfig(), 1)
		for _, l := range links {
			s.Announce(0, origin, l.ID, 0)
		}
		s.Converge()
	}
}

// TestWithdrawReannounceReproducible validates the testbed's experiment
// protocol: withdrawing everything and re-announcing in the same order on
// the same simulation yields identical catchments, because the stable
// processing delays (not wall-clock accidents) decide every race within a
// run.
func TestWithdrawReannounceReproducible(t *testing.T) {
	s, topo, origin, links := buildAnycast(t, topology.TestParams(), DefaultConfig(), 1)
	announce := func() map[topology.ASN]topology.LinkID {
		for i, l := range links {
			s.AnnounceAt(s.Engine.Now()+time.Duration(i)*6*time.Minute, 0, origin, l.ID, 0)
		}
		s.Converge()
		return s.CatchmentMap(0, topo.Targets)
	}
	first := announce()
	s.WithdrawAll(0)
	s.Converge()
	if n := s.ReachableCount(0); n != 0 {
		t.Fatalf("%d ASes still route after withdrawal", n)
	}
	second := announce()
	if len(first) != len(second) {
		t.Fatalf("catchment sizes differ: %d vs %d", len(first), len(second))
	}
	for asn, link := range first {
		if second[asn] != link {
			t.Fatalf("AS%d moved from link %d to %d across re-announcement", asn, link, second[asn])
		}
	}
}
