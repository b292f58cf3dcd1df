package bgp

import (
	"math/rand"
	"testing"
	"time"

	"anyopt/internal/topology"
)

// lemmaSim builds a simulator over a generated topology restricted to the
// Appendix A model assumptions: no multipath, no deviant LOCAL_PREF.
// Announcements are order-controlled so ties resolve identically across
// subsets (the "source-oblivious" tie-breaking the local preference model
// requires).
func lemmaSim(t testing.TB, seed int64) (*Sim, *topology.Topology, topology.ASN, []*topology.Link) {
	t.Helper()
	p := topology.TestParams()
	p.Seed = seed
	p.FracMultipath = 0
	p.FracDeviant = 0
	return buildAnycast(t, p, DefaultConfig(), 1)
}

// announceOrdered announces the given site links in slice order, spaced so
// the earlier announcement arrives everywhere first.
func announceOrdered(s *Sim, origin topology.ASN, links []*topology.Link) {
	for i, l := range links {
		s.AnnounceAt(time.Duration(i)*6*time.Minute, 0, origin, l.ID, 0)
	}
	s.Converge()
}

// TestLemma1Reachability encodes statement 1 of Lemma 1 at the system level:
// announcing from more sites can never make a client lose reachability
// ("if a router receives route announcements from more incoming links, it
// cannot shrink the set of outgoing links it exports to").
func TestLemma1Reachability(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 4; trial++ {
		seed := int64(trial + 1)

		// Reachability under a random small subset.
		s1, topo, origin, links := lemmaSim(t, seed)
		k := 1 + rng.Intn(3)
		idx := rng.Perm(len(links))[:k]
		var subset []*topology.Link
		for _, i := range idx {
			subset = append(subset, links[i])
		}
		announceOrdered(s1, origin, subset)
		var reachable []topology.ASN
		for _, tg := range topo.Targets {
			if _, ok := s1.Forward(0, tg); ok {
				reachable = append(reachable, tg.AS)
			}
		}
		if len(reachable) == 0 {
			t.Fatalf("trial %d: nothing reachable under subset", trial)
		}

		// Grow the subset (same relative order, extras appended).
		s2, topo2, origin2, links2 := lemmaSim(t, seed)
		var grown []*topology.Link
		for _, i := range idx {
			grown = append(grown, links2[i])
		}
		for i := range links2 {
			used := false
			for _, j := range idx {
				if i == j {
					used = true
				}
			}
			if !used {
				grown = append(grown, links2[i])
			}
		}
		announceOrdered(s2, origin2, grown)
		for _, asn := range reachable {
			var tg topology.Target
			for _, cand := range topo2.Targets {
				if cand.AS == asn {
					tg = cand
				}
			}
			if _, ok := s2.Forward(0, tg); !ok {
				t.Fatalf("trial %d: AS%d reachable under subset but not superset — Lemma 1 violated", trial, asn)
			}
		}
	}
}

// TestLemma2LoserStaysLoser encodes Lemma 2: when A beats B in the pairwise
// comparison, enabling additional sites never hands the client to B — under
// the local preference model's assumptions and a fixed relative announcement
// order.
func TestLemma2LoserStaysLoser(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 3; trial++ {
		seed := int64(trial + 1)

		// Pairwise comparison of sites 0 and 1 (0 announced first).
		s1, topo, origin, links := lemmaSim(t, seed)
		announceOrdered(s1, origin, []*topology.Link{links[0], links[1]})
		type outcome struct {
			winner topology.LinkID
			loser  topology.LinkID
		}
		results := map[topology.ASN]outcome{}
		for _, tg := range topo.Targets {
			res, ok := s1.Forward(0, tg)
			if !ok {
				continue
			}
			o := outcome{winner: res.EntryLink}
			if res.EntryLink == links[0].ID {
				o.loser = links[1].ID
			} else {
				o.loser = links[0].ID
			}
			results[tg.AS] = o
		}

		// Enable more sites, preserving 0-before-1 and appending the rest.
		extra := rng.Intn(len(links)-2) + 1
		s2, topo2, origin2, links2 := lemmaSim(t, seed)
		grown := []*topology.Link{links2[0], links2[1]}
		for i := 2; i < 2+extra; i++ {
			grown = append(grown, links2[i])
		}
		announceOrdered(s2, origin2, grown)

		violations := 0
		for _, tg := range topo2.Targets {
			prev, ok := results[tg.AS]
			if !ok {
				continue
			}
			res, ok := s2.Forward(0, tg)
			if !ok {
				continue
			}
			if res.EntryLink == prev.loser {
				violations++
			}
		}
		// The lemma's conditions (pure local-preference tie-breaking) are
		// only approximated — interior-cost and age ties resolve identically
		// across runs here, so violations should be essentially absent.
		if violations > len(results)/100 {
			t.Errorf("trial %d: %d/%d clients switched to the pairwise loser — Lemma 2 violated",
				trial, violations, len(results))
		}
	}
}

// TestLemma2ViolatedByMultipath shows the lemma's conditions are necessary:
// with multipath ASes present (candidate-set-dependent hashing), some
// clients do fall back to the pairwise loser when more sites are enabled —
// which is exactly why the paper excludes such clients from prediction.
func TestLemma2ViolatedByMultipath(t *testing.T) {
	p := topology.TestParams()
	p.FracMultipath = 0.5 // exaggerate to make the counterexample certain
	p.FracDeviant = 0

	s1, topo, origin, links := buildAnycast(t, p, DefaultConfig(), 1)
	announceOrdered(s1, origin, []*topology.Link{links[0], links[1]})
	losers := map[topology.ASN]topology.LinkID{}
	for _, tg := range topo.Targets {
		res, ok := s1.Forward(0, tg)
		if !ok {
			continue
		}
		if res.EntryLink == links[0].ID {
			losers[tg.AS] = links[1].ID
		} else {
			losers[tg.AS] = links[0].ID
		}
	}

	s2, topo2, origin2, links2 := buildAnycast(t, p, DefaultConfig(), 1)
	announceOrdered(s2, origin2, []*topology.Link{links2[0], links2[1], links2[2], links2[3]})
	switched := 0
	for _, tg := range topo2.Targets {
		loser, ok := losers[tg.AS]
		if !ok {
			continue
		}
		if res, ok := s2.Forward(0, tg); ok && res.EntryLink == loser {
			switched++
		}
	}
	if switched == 0 {
		t.Skip("no multipath counterexample materialized at this seed; the lemma held vacuously")
	}
	t.Logf("%d clients switched to their pairwise loser under multipath — Lemma 2's assumptions are necessary", switched)
}
