package bgp

import (
	"fmt"
	"time"

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
	for p, ps := range s.prefixes {
		if ps == nil {
			continue
		}
		for _, end := range []topology.ASN{l.From, l.To} {
			rib, slot := s.ribOf(ps, end), l.Slot(end)
			if rib == nil || slot >= len(rib.in) || rib.in[slot] == nil {
				continue
			}
			rib.in[slot] = nil
			s.runDecision(PrefixID(p), ps, end, rib)
		}
	}
}

// FailLinkAt schedules FailLink(id) to run at virtual time at.
func (s *Sim) FailLinkAt(at time.Duration, id topology.LinkID) {
	s.scheduleOp(at, opFailLink, 0, id, "FailLinkAt")
}

// RestoreLinkAt schedules RestoreLink(id) to run at virtual time at.
func (s *Sim) RestoreLinkAt(at time.Duration, id topology.LinkID) {
	s.scheduleOp(at, opRestoreLink, 0, id, "RestoreLinkAt")
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
	for i, ps := range s.prefixes {
		if ps == nil {
			continue
		}
		p := PrefixID(i)
		// Origin-side announcements resume.
		if j, ok := ps.origination(id); ok {
			o := ps.announced[j]
			s.deliver(p, l, l.Other(ps.origin), o.path, o.med)
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
			path := s.newPath(end, rib.best.path)
			s.deliver(p, l, other, path, 0)
		}
	}
}

// LinkFailed reports whether the link is currently down.
func (s *Sim) LinkFailed(id topology.LinkID) bool {
	return int(id) < len(s.failed) && s.failed[id]
}
