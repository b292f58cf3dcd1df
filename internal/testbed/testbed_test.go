package testbed

import (
	"encoding/binary"
	"encoding/json"
	"net/netip"
	"testing"
	"time"

	"anyopt/internal/bgp"
	"anyopt/internal/topology"
)

func build(t testing.TB) (*Testbed, *topology.Topology) {
	t.Helper()
	topo, err := topology.Generate(topology.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	tb, err := New(topo, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return tb, topo
}

func TestTable1Layout(t *testing.T) {
	tb, topo := build(t)

	if len(tb.Sites) != 15 {
		t.Fatalf("sites = %d, want 15", len(tb.Sites))
	}
	if got := tb.PeerLinkCount(); got != 104 {
		t.Errorf("total peering links = %d, want 104 (Table 1)", got)
	}
	if got := len(tb.TransitProviders()); got != 6 {
		t.Errorf("transit providers = %d, want 6", got)
	}
	// Peer counts per site match Table 1.
	wantPeers := []int{4, 1, 6, 15, 14, 3, 4, 4, 7, 2, 7, 14, 9, 9, 5}
	for i, s := range tb.Sites {
		if len(s.PeerLinks) != wantPeers[i] {
			t.Errorf("site %d peers = %d, want %d", s.ID, len(s.PeerLinks), wantPeers[i])
		}
		if s.TunnelRTT <= 0 {
			t.Errorf("site %d tunnel RTT = %v", s.ID, s.TunnelRTT)
		}
		if s.ID != i+1 {
			t.Errorf("site at index %d has ID %d", i, s.ID)
		}
	}
	// Site 6 is Tokyo on NTT.
	if s := tb.Site(6); s.City != "Tokyo" || s.TransitName != "NTT" {
		t.Errorf("site 6 = %s/%s, want Tokyo/NTT", s.City, s.TransitName)
	}
	// The origin AS must exist with one PoP per site.
	origin := topo.AS(tb.Origin)
	if origin == nil || origin.Tier != topology.TierOrigin {
		t.Fatal("origin AS missing")
	}
	if len(origin.PoPs) != 15 {
		t.Errorf("origin PoPs = %d, want 15", len(origin.PoPs))
	}
	if err := topo.Validate(); err != nil {
		t.Errorf("topology invalid after testbed deployment: %v", err)
	}
}

func TestLookups(t *testing.T) {
	tb, _ := build(t)
	for _, s := range tb.Sites {
		if got := tb.SiteByLink(s.TransitLink); got != s {
			t.Errorf("SiteByLink(transit %d) = %v", s.TransitLink, got)
		}
		for _, pl := range s.PeerLinks {
			if got := tb.SiteByLink(pl); got != s {
				t.Errorf("SiteByLink(peer %d) = %v", pl, got)
			}
		}
		if got := tb.SiteByTunnelKey(s.TunnelKey); got != s {
			t.Errorf("SiteByTunnelKey(%d) = %v", s.TunnelKey, got)
		}
	}
	if tb.Site(0) != nil || tb.Site(16) != nil {
		t.Error("out-of-range Site() lookups should return nil")
	}
	if tb.SiteByTunnelKey(999) != nil {
		t.Error("unknown tunnel key resolved")
	}
	if tb.SiteByLink(topology.LinkID(0)) != nil {
		t.Error("non-testbed link resolved to a site")
	}
}

func TestSitesOfTransit(t *testing.T) {
	tb, topo := build(t)
	total := 0
	for _, prov := range tb.TransitProviders() {
		sites := tb.SitesOfTransit(prov)
		total += len(sites)
		for _, s := range sites {
			if s.Transit != prov {
				t.Errorf("site %d returned for wrong provider", s.ID)
			}
		}
	}
	if total != 15 {
		t.Errorf("sites across providers = %d, want 15", total)
	}
	// NTT hosts sites 6, 7, 9, 11 per Table 1.
	var ntt topology.ASN
	for _, a := range topo.Tier1s() {
		if a.Name == "NTT" {
			ntt = a.ASN
		}
	}
	ids := []int{}
	for _, s := range tb.SitesOfTransit(ntt) {
		ids = append(ids, s.ID)
	}
	want := []int{6, 7, 9, 11}
	if len(ids) != len(want) {
		t.Fatalf("NTT sites = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("NTT sites = %v, want %v", ids, want)
		}
	}
}

func TestPeersAreDistinctASes(t *testing.T) {
	tb, topo := build(t)
	seen := map[topology.ASN]bool{}
	for _, s := range tb.Sites {
		for _, pl := range s.PeerLinks {
			l := topo.Link(pl)
			if l.Rel != topology.PeerPeer {
				t.Errorf("peer link %d has relationship %v", pl, l.Rel)
			}
			peer := l.Other(tb.Origin)
			if seen[peer] {
				t.Errorf("AS %d peers with the testbed twice", peer)
			}
			seen[peer] = true
		}
	}
}

func TestDeploymentAnnounceWithdraw(t *testing.T) {
	tb, topo := build(t)
	sim := bgp.New(topo, bgp.DefaultConfig())
	d := tb.NewDeployment(sim, 0)

	d.AnnounceSites(1, 4, 6)
	if got := len(sim.AppendAnnouncedLinks(0, nil)); got != 3 {
		t.Fatalf("announced links = %d, want 3", got)
	}
	reach := 0
	for _, tg := range topo.Targets {
		if _, ok := sim.Forward(0, tg); ok {
			reach++
		}
	}
	if reach != len(topo.Targets) {
		t.Errorf("%d/%d targets reachable", reach, len(topo.Targets))
	}

	// Catchments must map to exactly the enabled sites.
	cm := sim.CatchmentMap(0, topo.Targets)
	enabled := map[int]bool{1: true, 4: true, 6: true}
	for asn, link := range cm {
		s := tb.SiteByLink(link)
		if s == nil || !enabled[s.ID] {
			t.Fatalf("AS%d caught by unexpected link %d", asn, link)
		}
	}

	d.WithdrawAll()
	if got := len(sim.AppendAnnouncedLinks(0, nil)); got != 0 {
		t.Errorf("links still announced after WithdrawAll: %d", got)
	}
	if n := sim.ReachableCount(0); n != 0 {
		t.Errorf("%d ASes still route the prefix after withdrawal", n)
	}
}

func TestDeploymentSpacingControlsOrder(t *testing.T) {
	// Announcing (a, b) spaced must produce a different overall catchment
	// split than (b, a) for at least one target (arrival-order ties exist).
	run := func(order []int) map[topology.ASN]topology.LinkID {
		tb, topo := build(t)
		sim := bgp.New(topo, bgp.DefaultConfig())
		d := tb.NewDeployment(sim, 0)
		d.AnnounceSites(order...)
		return sim.CatchmentMap(0, topo.Targets)
	}
	a := run([]int{1, 5}) // Telia Atlanta vs GTT London
	b := run([]int{5, 1})
	diff := 0
	for asn, link := range a {
		if b[asn] != link {
			diff++
		}
	}
	if diff == 0 {
		t.Error("reversing announcement order changed no catchments; ties are not being broken by arrival order")
	}
}

func TestEnablePeer(t *testing.T) {
	tb, topo := build(t)
	sim := bgp.New(topo, bgp.DefaultConfig())
	d := tb.NewDeployment(sim, 0)
	d.AnnounceSites(1, 3, 5)

	peerLink := tb.Site(4).PeerLinks[0]
	d.EnablePeer(peerLink)

	// The peer AS itself must now reach the prefix over its peering link.
	peerAS := topo.Link(peerLink).Other(tb.Origin)
	if ri := sim.BestRoute(0, peerAS); ri == nil || ri.Link != peerLink {
		t.Errorf("peer AS %d does not use its peering link (route %+v)", peerAS, ri)
	}
}

func TestNewErrors(t *testing.T) {
	topo, err := topology.Generate(topology.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(topo, Options{Sites: []SiteSpec{{City: "Nowhere", Transit: "Telia"}}}); err == nil {
		t.Error("unknown city accepted")
	}
	if _, err := New(topo, Options{Sites: []SiteSpec{{City: "Atlanta", Transit: "NoSuchT1"}}}); err == nil {
		t.Error("unknown transit accepted")
	}
}

func TestDefaultPrefixes(t *testing.T) {
	tb, _ := build(t)
	if len(tb.AnycastAddrs) != 4 {
		t.Errorf("anycast prefixes = %d, want 4 (as in the paper)", len(tb.AnycastAddrs))
	}
	seen := map[string]bool{}
	for _, a := range tb.AnycastAddrs {
		if seen[a.String()] {
			t.Errorf("duplicate anycast address %v", a)
		}
		seen[a.String()] = true
	}
}

func TestTunnelRTTPlausible(t *testing.T) {
	tb, _ := build(t)
	// Boston → Tokyo tunnel should be far longer than Boston → Newark.
	tokyo := tb.Site(6).TunnelRTT
	newark := tb.Site(11).TunnelRTT
	if tokyo <= newark {
		t.Errorf("tunnel RTTs implausible: Tokyo %v <= Newark %v", tokyo, newark)
	}
	if newark < time.Millisecond || tokyo > time.Second {
		t.Errorf("tunnel RTTs out of range: %v, %v", newark, tokyo)
	}
}

// TestTargetIndex: every target resolves to itself at its own index, and
// an address before or after the targets, or of another family, resolves to
// nothing. The subtests cover the other families, an imported topology off
// the generator's address plan, and SiteByLink's range.
func TestTargetIndex(t *testing.T) {
	tb, topo := build(t)
	resolvesAll(t, tb)
	first, last := topo.Targets[0].Addr, topo.Targets[len(topo.Targets)-1].Addr
	for _, a := range []netip.Addr{first.Prev(), last.Next(), tb.OrchAddr, {}} {
		if i, ok := tb.TargetIndex(a); ok {
			t.Errorf("TargetIndex(%v) = %d, want no target", a, i)
		}
	}

	// The IPv6 and IPv4-mapped forms of a target's own address are no
	// target, and must not reach As4's panic.
	t.Run("other families", func(t *testing.T) {
		b := first.As4()
		mapped := netip.AddrFrom16(first.As16())
		v6 := netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 12: b[0], 13: b[1], 14: b[2], 15: b[3]})
		for _, a := range []netip.Addr{mapped, v6, netip.IPv6Loopback()} {
			if i, ok := tb.TargetIndex(a); ok {
				t.Errorf("TargetIndex(%v) = %d, want no target", a, i)
			}
		}
	})

	// An imported topology need not follow the generator's 10.x plan. With
	// its targets spread over the whole IPv4 space — the high bit set
	// included, where a signed key would misorder them — every target still
	// resolves, and the address after each does not.
	t.Run("imported off-plan", func(t *testing.T) {
		tb := importedOffPlan(t)
		resolvesAll(t, tb)
		for _, tg := range tb.Topo.Targets {
			if i, ok := tb.TargetIndex(tg.Addr.Next()); ok {
				t.Fatalf("TargetIndex(%v) = %d, want no target", tg.Addr.Next(), i)
			}
		}
	})

	// Only the origin's own links map to sites: a link elsewhere in the
	// topology, a negative ID and the ID one past the last link map to nil.
	t.Run("SiteByLink range", func(t *testing.T) {
		lastLink := topo.Links[len(topo.Links)-1].ID
		if tb.SiteByLink(lastLink) == nil {
			t.Fatalf("the last link %d, added by the testbed, has no site", lastLink)
		}
		for _, id := range []topology.LinkID{topo.Links[0].ID, tb.Sites[0].TransitLink - 1, -1, lastLink + 1} {
			if s := tb.SiteByLink(id); s != nil {
				t.Errorf("SiteByLink(%d) = site %d, want nil", id, s.ID)
			}
		}
	})
}

// importedOffPlan round-trips a generated topology through JSON with its
// targets renumbered evenly across the IPv4 space, and deploys a testbed on
// the import.
func importedOffPlan(t *testing.T) *Testbed {
	t.Helper()
	topo, err := topology.Generate(topology.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := topo.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	var dump map[string]any
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatal(err)
	}
	targets := dump["targets"].([]any)
	stride := uint32(1<<32/uint64(len(targets)+1)) &^ 1 // even, so addr+1 is never a target
	for i, jt := range targets {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], uint32(i+1)*stride)
		jt.(map[string]any)["addr"] = netip.AddrFrom4(b).String()
	}
	if raw, err = json.Marshal(dump); err != nil {
		t.Fatal(err)
	}
	imported, err := topology.ImportJSON(raw)
	if err != nil {
		t.Fatal(err)
	}
	if a := imported.Targets[len(imported.Targets)-1].Addr; a.As4()[0] < 0x80 {
		t.Fatalf("last target %v leaves the high half of the address space unused", a)
	}
	tb, err := New(imported, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// resolvesAll fails t unless every target of tb resolves to itself at its own
// index.
func resolvesAll(t *testing.T, tb *Testbed) {
	t.Helper()
	for i, want := range tb.Topo.Targets {
		if got, ok := tb.TargetIndex(want.Addr); !ok || got != i {
			t.Fatalf("TargetIndex(%v) = %d, %v; want %d", want.Addr, got, ok, i)
		}
	}
}
