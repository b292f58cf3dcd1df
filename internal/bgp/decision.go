package bgp

import "anyopt/internal/topology"

// interiorCost models the hot-potato "lowest interior cost" step at the
// single-speaker abstraction: the distance from the AS to the route's exit
// point, bucketed so that comparably distant exits still tie. For an AS with
// PoP structure the exit is its own attachment PoP; a single-location AS
// discriminates by where its neighbor's attachment sits.
//
// The distance is the link's precomputed ExitKm, so the bucket division is
// bit-identical to recomputing the haversine per update.
func (s *Sim) interiorCost(a topology.ASN, l *topology.Link) int {
	if s.Cfg.InteriorCostBucketKm <= 0 {
		return 0
	}
	return int(l.ExitKm(a) / s.Cfg.InteriorCostBucketKm)
}

// selectBest runs the BGP decision process over AS a's Adj-RIB-In and returns
// the single best route plus the candidate set tied with it through
// LOCAL_PREF and AS-path length.
//
// Decision order (§4.1 of the paper, RFC 4271 §9.1.2.2, plus the
// implementation-specific step the paper studies):
//
//  1. highest LOCAL_PREF
//  2. shortest AS_PATH
//  3. lowest ORIGIN — all our announcements share one origin code; skipped
//  4. lowest MED (comparable only between routes from the same neighbor AS)
//  5. eBGP over iBGP — one speaker per AS, all routes eBGP; skipped
//  6. lowest interior cost — hot potato over quantized exit distance
//  7. oldest route (arrival order) — implementation tie-breaker, optional
//  8. lowest neighbor router ID
//  9. lowest neighbor address (modeled by link ID)
//
// The Adj-RIB-In is walked in link-ID order (it is parallel to the AS's
// adjacency), which is the deterministic base order every step below and
// the candidate set inherit.
func (s *Sim) selectBest(rib *ribState) (*route, []*route) {
	var best *route
	for _, r := range rib.in {
		if r == nil {
			continue
		}
		if best == nil || s.better(r, best) {
			best = r
		}
	}
	if best == nil {
		return nil, nil
	}
	nCand := 0
	for _, r := range rib.in {
		if r != nil && r.localPref == best.localPref && r.pathLen() == best.pathLen() {
			nCand++
		}
	}
	candidates := s.cands.alloc(nCand)[:0]
	for _, r := range rib.in {
		if r != nil && r.localPref == best.localPref && r.pathLen() == best.pathLen() {
			candidates = append(candidates, r)
		}
	}
	return best, candidates
}

// better reports whether route x beats route y in the decision process.
func (s *Sim) better(x, y *route) bool {
	if x.localPref != y.localPref {
		return x.localPref > y.localPref
	}
	if x.pathLen() != y.pathLen() {
		return x.pathLen() < y.pathLen()
	}
	// MED compares only among routes from the same neighboring AS.
	if len(x.path) > 0 && len(y.path) > 0 && x.path[0] == y.path[0] && x.med != y.med {
		return x.med < y.med
	}
	if x.interiorCost != y.interiorCost {
		return x.interiorCost < y.interiorCost
	}
	if s.Cfg.ArrivalOrderTieBreak && x.arrival != y.arrival {
		if x.arrival < y.arrival {
			s.invRecordTie(x, y)
			return true
		}
		s.invRecordTie(y, x)
		return false
	}
	if x.neighborRouterID != y.neighborRouterID {
		return x.neighborRouterID < y.neighborRouterID
	}
	return x.link.ID < y.link.ID
}
