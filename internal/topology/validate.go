package topology

import (
	"fmt"
)

// Validate checks structural invariants of a generated topology:
//
//   - every tier-1 peers with every other tier-1 (the clique assumption the
//     paper's Theorem 4.1 relies on),
//   - tier-1s have no providers,
//   - every non-tier-1 AS has at least one provider,
//   - every AS can reach the tier-1 clique by walking provider links
//     (valley-free reachability),
//   - link endpoints and PoP indices are in range,
//   - targets reference existing ASes and have unique addresses.
func (t *Topology) Validate() error {
	t1s := t.Tier1s()
	t1set := make(map[ASN]bool, len(t1s))
	for _, a := range t1s {
		t1set[a.ASN] = true
	}

	// Tier-1 clique and no tier-1 providers.
	for _, a := range t1s {
		peers := make(map[ASN]bool)
		for _, l := range t.LinksOf(a.ASN) {
			switch l.RoleOf(a.ASN) {
			case RoleProvider:
				return fmt.Errorf("tier-1 %s(%d) has a provider %d", a.Name, a.ASN, l.Other(a.ASN))
			case RolePeer:
				peers[l.Other(a.ASN)] = true
			}
		}
		for _, b := range t1s {
			if b.ASN != a.ASN && !peers[b.ASN] {
				return fmt.Errorf("tier-1 clique broken: %s(%d) does not peer with %s(%d)",
					a.Name, a.ASN, b.Name, b.ASN)
			}
		}
	}

	// Links are well-formed.
	for _, l := range t.Links {
		fa, ta := t.AS(l.From), t.AS(l.To)
		if fa == nil || ta == nil {
			return fmt.Errorf("link %d references unknown AS (%d-%d)", l.ID, l.From, l.To)
		}
		if l.From == l.To {
			return fmt.Errorf("link %d is a self-loop at AS %d", l.ID, l.From)
		}
		if l.FromPoP >= fa.PoPCount() || l.ToPoP >= ta.PoPCount() {
			return fmt.Errorf("link %d PoP index out of range", l.ID)
		}
		if l.Delay <= 0 {
			return fmt.Errorf("link %d has non-positive delay %v", l.ID, l.Delay)
		}
	}

	// Every non-tier-1 AS has a provider; provider-reachability of the clique.
	reach := make(map[ASN]bool, len(t.ases))
	for asn := range t1set {
		reach[asn] = true
	}
	// Iterate to fixpoint: an AS reaches the clique if any of its providers
	// does. The provider DAG is shallow (stub → transit → tier-1), so a few
	// passes suffice, but loop until stable to be safe.
	for changed := true; changed; {
		changed = false
		for i, a := range t.ases {
			if reach[a.ASN] {
				continue
			}
			for _, l := range t.adj[i] {
				if l.RoleOf(a.ASN) == RoleProvider && reach[l.Other(a.ASN)] {
					reach[a.ASN] = true
					changed = true
					break
				}
			}
		}
	}
	for i, a := range t.ases {
		if a.Tier == TierT1 || a.Tier == TierOrigin {
			continue
		}
		hasProvider := false
		for _, l := range t.adj[i] {
			if l.RoleOf(a.ASN) == RoleProvider {
				hasProvider = true
				break
			}
		}
		if !hasProvider {
			return fmt.Errorf("%s AS %s(%d) has no provider", a.Tier, a.Name, a.ASN)
		}
		if !reach[a.ASN] {
			return fmt.Errorf("AS %s(%d) cannot reach the tier-1 clique via providers", a.Name, a.ASN)
		}
	}

	// Targets are unique and reference existing ASes.
	seen := make(map[string]bool, len(t.Targets))
	for _, tg := range t.Targets {
		if t.AS(tg.AS) == nil {
			return fmt.Errorf("target %s references unknown AS %d", tg.Addr, tg.AS)
		}
		k := tg.Addr.String()
		if seen[k] {
			return fmt.Errorf("duplicate target address %s", k)
		}
		seen[k] = true
	}
	return nil
}

// Stats summarizes a topology for logging and docs.
type Stats struct {
	Tier1s, Transits, Stubs int
	Links                   int
	CustomerProviderLinks   int
	PeerLinks               int
	Targets                 int
	MultipathASes           int
	DeviantASes             int
}

// ComputeStats tallies summary statistics.
func (t *Topology) ComputeStats() Stats {
	var s Stats
	for _, a := range t.ases {
		switch a.Tier {
		case TierT1:
			s.Tier1s++
		case TierTransit:
			s.Transits++
		case TierStub:
			s.Stubs++
		}
		if a.Multipath {
			s.MultipathASes++
		}
		if len(a.LocalPrefDelta) > 0 {
			s.DeviantASes++
		}
	}
	s.Links = len(t.Links)
	for _, l := range t.Links {
		if l.Rel == PeerPeer {
			s.PeerLinks++
		} else {
			s.CustomerProviderLinks++
		}
	}
	s.Targets = len(t.Targets)
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("tier1=%d transit=%d stub=%d links=%d (c2p=%d p2p=%d) targets=%d multipath=%d deviant=%d",
		s.Tier1s, s.Transits, s.Stubs, s.Links, s.CustomerProviderLinks, s.PeerLinks,
		s.Targets, s.MultipathASes, s.DeviantASes)
}
