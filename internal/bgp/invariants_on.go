//go:build invariants

package bgp

import (
	"anyopt/internal/bgp/invariant"
	"anyopt/internal/topology"
)

// This file is the -tags=invariants half of the runtime invariant hooks:
// each hook snapshots unexported simulator state into invariant.Route values
// and reports to invariant.Default. See invariants_off.go for the no-op
// default build.

// invRoute snapshots r for the checker.
func invRoute(r *route) invariant.Route {
	var first topology.ASN
	if len(r.path) > 0 {
		first = r.path[0]
	}
	return invariant.Route{
		LinkID:           r.link.ID,
		FirstHop:         first,
		LocalPref:        r.localPref,
		PathLen:          r.pathLen(),
		MED:              r.med,
		InteriorCost:     r.interiorCost,
		Arrival:          r.arrival,
		NeighborRouterID: r.neighborRouterID,
	}
}

func (s *Sim) invCheckExport(a topology.ASN, learnedFrom, to topology.NeighborRole) {
	invariant.Default.CheckExport(a, learnedFrom, to)
}

func (s *Sim) invCheckBest(a topology.ASN, rib *ribState) {
	// rib.in is parallel to the adjacency, so already in link-ID order.
	var routes []invariant.Route
	for _, r := range rib.in {
		if r != nil {
			routes = append(routes, invRoute(r))
		}
	}
	var best *invariant.Route
	if rib.best != nil {
		b := invRoute(rib.best)
		best = &b
	}
	invariant.Default.CheckBest(a, best, routes, s.Cfg.ArrivalOrderTieBreak)
}

func (s *Sim) invRecordTie(winner, loser *route) {
	invariant.Default.RecordTie(invRoute(winner), invRoute(loser))
}
