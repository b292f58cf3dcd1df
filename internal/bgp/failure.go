package bgp

import (
	"fmt"
	"sort"

	"anyopt/internal/topology"
)

// FailLink takes a link down: routes learned over it are removed at both
// endpoints (triggering withdrawals and reconvergence downstream) and
// in-flight or future updates over the link are dropped. Failing an already
// failed link is a no-op.
func (s *Sim) FailLink(id topology.LinkID) {
	l := s.Topo.Link(id)
	if l == nil {
		panic(fmt.Sprintf("bgp: FailLink on unknown link %d", id))
	}
	if s.LinkFailed(id) {
		return
	}
	if int(id) >= len(s.failed) { // a link added after New
		s.failed = append(s.failed, make([]bool, int(id)+1-len(s.failed))...)
	}
	s.failed[id] = true
	for _, ps := range s.orderedPrefixStates() {
		for _, end := range []topology.ASN{l.From, l.To} {
			rib, slot := s.ribOf(ps, end), l.Slot(end)
			if rib == nil || slot >= len(rib.in) || rib.in[slot] == nil {
				continue
			}
			rib.in[slot] = nil
			s.runDecision(psID(s, ps), ps, end, rib)
		}
	}
}

// RestoreLink brings a failed link back. Both endpoints re-advertise their
// current best route over it (as a BGP session re-establishment would), and
// the origin re-announces the prefix if the link carried an announcement.
// Note that restored routes are new — their arrival times reset, so
// age-based ties may resolve differently than before the failure, exactly
// as with real routers.
func (s *Sim) RestoreLink(id topology.LinkID) {
	l := s.Topo.Link(id)
	if l == nil {
		panic(fmt.Sprintf("bgp: RestoreLink on unknown link %d", id))
	}
	if !s.LinkFailed(id) {
		return
	}
	s.failed[id] = false
	for _, ps := range s.orderedPrefixStates() {
		p := psID(s, ps)
		// Origin-side announcements resume.
		if prepend, ok := ps.announced[id]; ok {
			path := s.paths.alloc(1 + prepend)
			for i := range path {
				path[i] = ps.origin
			}
			s.deliver(p, l, l.Other(ps.origin), path, ps.meds[id])
		}
		// Each endpoint re-exports its best to the other, per policy.
		for _, end := range []topology.ASN{l.From, l.To} {
			other := l.Other(end)
			if end == ps.origin || other == ps.origin {
				continue
			}
			rib := s.ribOf(ps, end)
			if rib == nil || rib.best == nil || rib.best.link.ID == id {
				continue
			}
			if !exportAllowed(rib.best.link.RoleOf(end), l.RoleOf(end)) {
				continue
			}
			path := s.paths.newPath(end, rib.best.path)
			s.deliver(p, l, other, path, 0)
		}
	}
}

// LinkFailed reports whether the link is currently down.
func (s *Sim) LinkFailed(id topology.LinkID) bool {
	return int(id) < len(s.failed) && s.failed[id]
}

// orderedPrefixStates returns prefix states in PrefixID order for
// deterministic iteration.
func (s *Sim) orderedPrefixStates() []*prefixState {
	ids := make([]int, 0, len(s.prefixes))
	for p := range s.prefixes {
		ids = append(ids, int(p))
	}
	sort.Ints(ids)
	out := make([]*prefixState, len(ids))
	for i, p := range ids {
		out[i] = s.prefixes[PrefixID(p)]
	}
	return out
}

// psID recovers a prefix state's ID (states are few; linear scan is fine).
func psID(s *Sim, target *prefixState) PrefixID {
	for p, ps := range s.prefixes {
		if ps == target {
			return p
		}
	}
	panic("bgp: unknown prefix state")
}
