// Package testbed models the paper's anycast testbed (§3.1): an anycast
// network of sites colocated with tier-1 transit PoPs, an orchestrator
// connected to every site by a GRE tunnel, and the announce/withdraw control
// plane that deploys anycast configurations onto the (simulated) Internet.
//
// The default layout is Table 1 of the paper: 15 sites across six tier-1
// transit providers (Telia, Zayo, TATA, GTT, NTT, Sparkle) with 104
// settlement-free peering links in total.
package testbed

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"time"

	"anyopt/internal/bgp"
	"anyopt/internal/geo"
	"anyopt/internal/topology"
)

// SiteSpec declares one site of the anycast network.
type SiteSpec struct {
	// City places the site; it must exist in the geo catalog.
	City string
	// Transit is the name of the tier-1 AS the site buys transit from.
	Transit string
	// Peers is the number of settlement-free peering links at the site.
	Peers int
}

// Table1 is the paper's testbed: site locations, transit providers, and peer
// counts exactly as reported.
var Table1 = []SiteSpec{
	{"Atlanta", "Telia", 4},
	{"Amsterdam", "Telia", 1},
	{"Los Angeles", "Zayo", 6},
	{"Singapore", "TATA", 15},
	{"London", "GTT", 14},
	{"Tokyo", "NTT", 3},
	{"Osaka", "NTT", 4},
	{"Los Angeles", "Zayo", 4},
	{"Miami", "NTT", 7},
	{"London", "Sparkle", 2},
	{"Newark", "NTT", 7},
	{"Stockholm", "Telia", 14},
	{"Toronto", "TATA", 9},
	{"Sao Paulo", "Sparkle", 9},
	{"Chicago", "GTT", 5},
}

// Site is a deployed anycast site.
type Site struct {
	// ID is 1-based, matching Table 1 numbering.
	ID int
	// Name combines city and transit for display.
	Name string
	// City and Coord locate the site.
	City  string
	Coord geo.Coord
	// Transit is the tier-1 provider AS.
	Transit topology.ASN
	// TransitName is the provider's name.
	TransitName string
	// TransitLink is the site's attachment to its transit provider.
	TransitLink topology.LinkID
	// PeerLinks are the site's settlement-free peering attachments.
	PeerLinks []topology.LinkID
	// TunnelKey identifies the orchestrator↔site GRE tunnel.
	TunnelKey uint32
	// TunnelAddr is the site router's tunnel endpoint address.
	TunnelAddr netip.Addr
	// TunnelRTT is the orchestrator↔site tunnel round-trip time, which the
	// orchestrator measures periodically and subtracts from probe RTTs
	// (§3.1, "Measuring RTTs").
	TunnelRTT time.Duration
}

// Testbed is the anycast network deployed on a topology.
type Testbed struct {
	Topo   *topology.Topology
	Origin topology.ASN
	Sites  []*Site
	// OrchCoord locates the orchestrator (the GoBGP server of §3.1).
	OrchCoord geo.Coord
	// OrchAddr is the orchestrator's unicast address.
	OrchAddr netip.Addr
	// AnycastAddrs are the test anycast addresses, one per prefix the
	// testbed can announce in parallel (the paper uses four).
	AnycastAddrs []netip.Addr

	// linkSite maps origin-side links (transit and peering) back to sites,
	// indexed by LinkID − firstLink: New adds the origin's links one after
	// another, so they hold consecutive IDs.
	linkSite  []*Site
	firstLink topology.LinkID
	// orchLeg is each target's one-way orchestrator → target delay (half
	// the RTT model's estimate), indexed like Topo.Targets: the direct leg
	// of every catchment probe, a pure function of the target.
	orchLeg []time.Duration
}

// The paper's testbed has four parallel test prefixes and one orchestrator,
// in Boston.
const (
	numPrefixes = 4
	orchCity    = "Boston"
)

// Options configures testbed construction.
type Options struct {
	// Sites defaults to Table1.
	Sites []SiteSpec
	// Seed drives peer selection.
	Seed int64
}

// New deploys the anycast network onto topo: it creates the origin AS, one
// PoP and transit link per site, and the requested number of peering links
// per site, attached to ASes near the site's city.
func New(topo *topology.Topology, opts Options) (*Testbed, error) {
	if opts.Sites == nil {
		opts.Sites = Table1
	}
	orch, _ := geo.CityByName(orchCity) // one of geo's cities
	rng := rand.New(rand.NewSource(opts.Seed ^ 0x7e57bed))

	// Index tier-1s by name.
	t1ByName := map[string]*topology.AS{}
	for _, a := range topo.Tier1s() {
		t1ByName[a.Name] = a
	}

	origin := topo.AddAS("anycast-net", topology.TierOrigin, orch.Coord)
	tb := &Testbed{
		Topo:      topo,
		Origin:    origin.ASN,
		OrchCoord: orch.Coord,
		OrchAddr:  netip.AddrFrom4([4]byte{192, 0, 2, 1}),
		orchLeg:   make([]time.Duration, len(topo.Targets)),
	}
	for i, tg := range topo.Targets {
		tb.orchLeg[i] = topo.Model.RTT(orch.Coord, topo.AS(tg.AS).Coord, 8) / 2
	}
	// Each test prefix is its own /24, as the paper's four test anycast
	// prefixes are independently routable.
	for i := 0; i < numPrefixes; i++ {
		tb.AnycastAddrs = append(tb.AnycastAddrs, netip.AddrFrom4([4]byte{203, 0, byte(113 + i), 10}))
	}

	// Candidate peer ASes: mostly stub/edge networks plus the occasional
	// regional transit — the mix found at the IXes near each site. Keeping
	// transit peers rare matters for the Figure 7a shape: a transit peer
	// pulls its whole customer cone, while a stub peer catches only itself.
	stubPool := topo.Stubs()
	transitPool := topo.Transits()

	usedPeer := map[topology.ASN]bool{}
	for i, spec := range opts.Sites {
		city, ok := geo.CityByName(spec.City)
		if !ok {
			return nil, fmt.Errorf("testbed: site %d: unknown city %q", i+1, spec.City)
		}
		t1 := t1ByName[spec.Transit]
		if t1 == nil {
			return nil, fmt.Errorf("testbed: site %d: unknown transit provider %q", i+1, spec.Transit)
		}
		// The site is a PoP of the origin AS, colocated with the provider's
		// nearest PoP.
		origin.PoPs = append(origin.PoPs, topology.PoP{City: city.Name, Coord: city.Coord})
		sitePoP := len(origin.PoPs) - 1
		provPoP := topo.NearestPoP(t1.ASN, city.Coord)

		site := &Site{
			ID:          i + 1,
			Name:        fmt.Sprintf("%s/%s", spec.City, spec.Transit),
			City:        spec.City,
			Coord:       city.Coord,
			Transit:     t1.ASN,
			TransitName: t1.Name,
			TunnelKey:   uint32(i + 1),
			TunnelAddr:  netip.AddrFrom4([4]byte{192, 0, 2, byte(10 + i)}),
		}
		link := topo.AddLink(origin.ASN, t1.ASN, topology.CustomerProvider, sitePoP, provPoP)
		site.TransitLink = link.ID
		tb.addLinkSite(link.ID, site)

		// Tunnel RTT: orchestrator to site over the Internet (GRE), plus a
		// little encapsulation overhead.
		site.TunnelRTT = topo.Model.RTT(orch.Coord, city.Coord, 6) + 400*time.Microsecond

		// Peering links: pick distinct nearby ASes, preferring ones within
		// peering range of the site's metro; roughly one in eight is a
		// regional transit, the rest are edge networks.
		nTransitPeers := spec.Peers / 8
		peers := pickPeers(rng, transitPool, city.Coord, nTransitPeers, usedPeer)
		peers = append(peers, pickPeers(rng, stubPool, city.Coord, spec.Peers-len(peers), usedPeer)...)
		if len(peers) < spec.Peers {
			return nil, fmt.Errorf("testbed: site %d: only %d of %d peers available", i+1, len(peers), spec.Peers)
		}
		for _, p := range peers {
			popIdx := topo.NearestPoP(p.ASN, city.Coord)
			pl := topo.AddLink(origin.ASN, p.ASN, topology.PeerPeer, sitePoP, popIdx)
			site.PeerLinks = append(site.PeerLinks, pl.ID)
			tb.addLinkSite(pl.ID, site)
		}
		tb.Sites = append(tb.Sites, site)
	}
	return tb, nil
}

// addLinkSite records that the origin-side link id belongs to site. Links
// arrive in the order New adds them, so each one extends linkSite by one.
func (tb *Testbed) addLinkSite(id topology.LinkID, site *Site) {
	if len(tb.linkSite) == 0 {
		tb.firstLink = id
	}
	if int(id-tb.firstLink) != len(tb.linkSite) {
		panic(fmt.Sprintf("testbed: origin link %d is not next after %d", id, int(tb.firstLink)+len(tb.linkSite)-1))
	}
	tb.linkSite = append(tb.linkSite, site)
}

// pickPeers samples n distinct ASes weighted toward those close to c. Each AS
// peers with the anycast network at most once across all sites (as in
// practice: one BGP peering per organization pair per location set).
func pickPeers(rng *rand.Rand, candidates []*topology.AS, c geo.Coord, n int, used map[topology.ASN]bool) []*topology.AS {
	type scored struct {
		as *topology.AS
		d  float64
	}
	var near []scored
	for _, a := range candidates {
		if used[a.ASN] {
			continue
		}
		near = append(near, scored{a, geo.DistanceKm(a.Coord, c)})
	}
	sort.Slice(near, func(i, j int) bool {
		if near[i].d != near[j].d {
			return near[i].d < near[j].d
		}
		return near[i].as.ASN < near[j].as.ASN
	})
	// Take from the nearest 3n with some randomness.
	pool := near
	if len(pool) > 3*n {
		pool = pool[:3*n]
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	var out []*topology.AS
	for _, s := range pool {
		if len(out) == n {
			break
		}
		used[s.as.ASN] = true
		out = append(out, s.as)
	}
	return out
}

// EncodeTunnelKey composes the GRE key a site router stamps on traffic it
// tunnels to the orchestrator: the low 16 bits identify the site's tunnel,
// the high 16 bits the ingress interface (0 = the transit link, i+1 = the
// i-th peering link). Per-interface GRE keys are how the one-pass peering
// experiments (§4.4) attribute a reply to a specific peering link.
func EncodeTunnelKey(siteKey uint32, linkOrdinal int) uint32 {
	return siteKey&0xffff | uint32(linkOrdinal)<<16
}

// DecodeTunnelKey splits a GRE key into site tunnel key and link ordinal.
func DecodeTunnelKey(key uint32) (siteKey uint32, linkOrdinal int) {
	return key & 0xffff, int(key >> 16)
}

// LinkOrdinal returns the interface ordinal of a site-owned link (0 for the
// transit link, i+1 for the i-th peering link), or -1 if the link is not at
// this site.
func (s *Site) LinkOrdinal(id topology.LinkID) int {
	if id == s.TransitLink {
		return 0
	}
	for i, pl := range s.PeerLinks {
		if pl == id {
			return i + 1
		}
	}
	return -1
}

// LinkByOrdinal is the inverse of LinkOrdinal; ok is false for unknown
// ordinals.
func (s *Site) LinkByOrdinal(ord int) (topology.LinkID, bool) {
	if ord == 0 {
		return s.TransitLink, true
	}
	if ord >= 1 && ord <= len(s.PeerLinks) {
		return s.PeerLinks[ord-1], true
	}
	return 0, false
}

// Site returns the site with 1-based ID, or nil.
func (tb *Testbed) Site(id int) *Site {
	if id < 1 || id > len(tb.Sites) {
		return nil
	}
	return tb.Sites[id-1]
}

// SiteByLink maps an origin-side link to the site owning it, or nil.
func (tb *Testbed) SiteByLink(id topology.LinkID) *Site {
	i := int(id) - int(tb.firstLink)
	if i < 0 || i >= len(tb.linkSite) {
		return nil
	}
	return tb.linkSite[i]
}

// TargetIndex returns the position in Topo.Targets of the target with unicast
// address a. It binary-searches on the address read as a big-endian uint32:
// generation and ImportJSON both keep Topo.Targets sorted by address and hold
// only IPv4 addresses, so that order is netip's. Any other address — IPv6
// or IPv4-mapped IPv6 included — is no target.
func (tb *Testbed) TargetIndex(a netip.Addr) (int, bool) {
	if !a.Is4() {
		return 0, false
	}
	key := addrKey(a)
	targets := tb.Topo.Targets
	i := sort.Search(len(targets), func(m int) bool { return addrKey(targets[m].Addr) >= key })
	return i, i < len(targets) && addrKey(targets[i].Addr) == key
}

// addrKey reads an IPv4 address as a big-endian uint32.
func addrKey(a netip.Addr) uint32 {
	b := a.As4()
	return binary.BigEndian.Uint32(b[:])
}

// OrchLeg returns the one-way orchestrator → target delay of the i-th
// target of Topo.Targets, precomputed when the testbed was built.
func (tb *Testbed) OrchLeg(i int) time.Duration { return tb.orchLeg[i] }

// SiteByTunnelKey resolves a GRE tunnel key to its site, ignoring the
// ingress-interface bits, or nil.
func (tb *Testbed) SiteByTunnelKey(key uint32) *Site {
	siteKey, _ := DecodeTunnelKey(key)
	for _, s := range tb.Sites {
		if s.TunnelKey == siteKey {
			return s
		}
	}
	return nil
}

// LinkByTunnelKey resolves a GRE tunnel key to the exact origin-side link the
// reply entered over, or 0, false for unknown keys.
func (tb *Testbed) LinkByTunnelKey(key uint32) (topology.LinkID, bool) {
	site := tb.SiteByTunnelKey(key)
	if site == nil {
		return 0, false
	}
	_, ord := DecodeTunnelKey(key)
	return site.LinkByOrdinal(ord)
}

// SitesOfTransit lists the sites homed to the given transit provider, in ID
// order.
func (tb *Testbed) SitesOfTransit(t topology.ASN) []*Site {
	var out []*Site
	for _, s := range tb.Sites {
		if s.Transit == t {
			out = append(out, s)
		}
	}
	return out
}

// TransitProviders returns the distinct transit ASes used by sites, in ASN
// order.
func (tb *Testbed) TransitProviders() []topology.ASN {
	seen := map[topology.ASN]bool{}
	var out []topology.ASN
	for _, s := range tb.Sites {
		if !seen[s.Transit] {
			seen[s.Transit] = true
			out = append(out, s.Transit)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PeerLinkCount returns the total number of peering links across sites.
func (tb *Testbed) PeerLinkCount() int {
	n := 0
	for _, s := range tb.Sites {
		n += len(s.PeerLinks)
	}
	return n
}

// Deployment drives announcements for one prefix on a bgp.Sim.
type Deployment struct {
	TB     *Testbed
	Sim    *bgp.Sim
	Prefix bgp.PrefixID
	// Spacing separates consecutive announcements so the earlier one
	// arrives everywhere first (§4.2 uses six minutes).
	Spacing time.Duration
}

// NewDeployment creates a deployment controller for prefix on sim.
func (tb *Testbed) NewDeployment(sim *bgp.Sim, prefix bgp.PrefixID) *Deployment {
	return &Deployment{TB: tb, Sim: sim, Prefix: prefix, Spacing: 6 * time.Minute}
}

// AnnounceSites announces the prefix from the given sites' transit links in
// the given order, spaced by Spacing, and converges.
func (d *Deployment) AnnounceSites(siteIDs ...int) {
	for rank, id := range siteIDs {
		site := d.TB.Site(id)
		if site == nil {
			panic(fmt.Sprintf("testbed: unknown site %d", id))
		}
		at := d.Sim.Engine.Now() + time.Duration(rank)*d.Spacing
		d.Sim.AnnounceAt(at, d.Prefix, d.TB.Origin, site.TransitLink, 0)
	}
	d.Sim.Converge()
}

// AnnounceSitesSimultaneously announces from all given sites at the same
// instant, leaving arrival order to propagation and processing jitter — the
// "naive" mode of §5.1.
func (d *Deployment) AnnounceSitesSimultaneously(siteIDs ...int) {
	for _, id := range siteIDs {
		site := d.TB.Site(id)
		if site == nil {
			panic(fmt.Sprintf("testbed: unknown site %d", id))
		}
		d.Sim.Announce(d.Prefix, d.TB.Origin, site.TransitLink, 0)
	}
	d.Sim.Converge()
}

// EnablePeer announces the prefix over one peering link and converges.
func (d *Deployment) EnablePeer(link topology.LinkID) {
	d.Sim.Announce(d.Prefix, d.TB.Origin, link, 0)
	d.Sim.Converge()
}

// WithdrawAll withdraws the prefix everywhere and converges; the testbed does
// this between experiments, as the paper does.
func (d *Deployment) WithdrawAll() {
	d.Sim.WithdrawAll(d.Prefix)
	d.Sim.Converge()
}
