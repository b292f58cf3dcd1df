package bgp

import (
	"testing"
	"time"

	"anyopt/internal/geo"
	"anyopt/internal/topology"
)

// lab is a hand-built scenario: an origin AS with sites, a small provider
// hierarchy, and client stubs, giving full control over structure.
type lab struct {
	topo   *topology.Topology
	origin *topology.AS
}

func newLab() *lab {
	topo := topology.NewEmpty(geo.DefaultLatencyModel())
	origin := topo.AddAS("origin", topology.TierOrigin, geo.Coord{Lat: 42, Lon: -71})
	return &lab{topo: topo, origin: origin}
}

// addT1 adds a tier-1 with PoPs at the named cities.
func (l *lab) addT1(name string, cities ...string) *topology.AS {
	first, ok := geo.CityByName(cities[0])
	if !ok {
		panic("unknown city " + cities[0])
	}
	a := l.topo.AddAS(name, topology.TierT1, first.Coord)
	for _, cn := range cities {
		c, ok := geo.CityByName(cn)
		if !ok {
			panic("unknown city " + cn)
		}
		a.PoPs = append(a.PoPs, topology.PoP{City: c.Name, Coord: c.Coord})
	}
	return a
}

func (l *lab) addStub(name, city string, providers ...*topology.AS) *topology.AS {
	c, ok := geo.CityByName(city)
	if !ok {
		panic("unknown city " + city)
	}
	a := l.topo.AddAS(name, topology.TierStub, c.Coord)
	for _, p := range providers {
		pop := l.topo.NearestPoP(p.ASN, c.Coord)
		l.topo.AddLink(a.ASN, p.ASN, topology.CustomerProvider, -1, pop)
	}
	return a
}

// site attaches the origin to provider at the PoP nearest city and returns
// the attachment link. The site is physically colocated with the provider's
// PoP, so it becomes a PoP of the origin AS at the same city.
func (l *lab) site(provider *topology.AS, city string) *topology.Link {
	c, ok := geo.CityByName(city)
	if !ok {
		panic("unknown city " + city)
	}
	l.origin.PoPs = append(l.origin.PoPs, topology.PoP{City: c.Name, Coord: c.Coord})
	siteIdx := len(l.origin.PoPs) - 1
	pop := l.topo.NearestPoP(provider.ASN, c.Coord)
	return l.topo.AddLink(l.origin.ASN, provider.ASN, topology.CustomerProvider, siteIdx, pop)
}

func (l *lab) peerT1s(a, b *topology.AS) {
	l.topo.AddLink(a.ASN, b.ASN, topology.PeerPeer, 0, 0)
}

func target(a *topology.AS) topology.Target {
	return topology.Target{AS: a.ASN, FlowSalt: uint64(a.ASN) * 2654435761}
}

// tieCfg disables the interior-cost step so tests can exercise the
// arrival-order tie-break in isolation.
func tieCfg() Config {
	cfg := DefaultConfig()
	cfg.InteriorCostBucketKm = 0
	return cfg
}

func TestSingleSiteReachability(t *testing.T) {
	l := newLab()
	t1a := l.addT1("T1A", "New York", "London")
	t1b := l.addT1("T1B", "Frankfurt", "Tokyo")
	l.peerT1s(t1a, t1b)
	stub := l.addStub("client", "Frankfurt", t1b)
	siteLink := l.site(t1a, "New York")

	s := New(l.topo, DefaultConfig())
	s.Announce(0, l.origin.ASN, siteLink.ID, 0)
	s.Converge()

	// The stub should learn the route via T1B <- (peer) T1A <- origin.
	ri := s.BestRoute(0, stub.ASN)
	if ri == nil {
		t.Fatal("stub has no route")
	}
	if ri.Neighbor != t1b.ASN {
		t.Errorf("stub next hop = AS%d, want T1B (AS%d)", ri.Neighbor, t1b.ASN)
	}
	wantPath := []topology.ASN{t1b.ASN, t1a.ASN, l.origin.ASN}
	if len(ri.Path) != len(wantPath) {
		t.Fatalf("path = %v, want %v", ri.Path, wantPath)
	}
	for i := range wantPath {
		if ri.Path[i] != wantPath[i] {
			t.Fatalf("path = %v, want %v", ri.Path, wantPath)
		}
	}

	res, ok := s.Forward(0, target(stub))
	if !ok {
		t.Fatal("forward failed")
	}
	if res.EntryLink != siteLink.ID {
		t.Errorf("entry link = %d, want %d", res.EntryLink, siteLink.ID)
	}
	if res.Delay <= 0 {
		t.Error("forwarding delay should be positive")
	}
}

// TestSimFollowsTopologyGrowth: per-AS and per-link state is laid out by
// dense index when a prefix is first used, so an AS or link added to the
// topology afterwards must grow it — RIBs, the failed-link set and the
// forwarding memo's slots — instead of indexing past it.
func TestSimFollowsTopologyGrowth(t *testing.T) {
	l := newLab()
	t1a := l.addT1("T1A", "New York", "London")
	t1b := l.addT1("T1B", "Frankfurt", "Tokyo")
	l.peerT1s(t1a, t1b)
	old := l.addStub("old", "Boston", t1a)
	siteLink := l.site(t1a, "New York")

	s := New(l.topo, DefaultConfig())
	s.Announce(0, l.origin.ASN, siteLink.ID, 0)
	s.Converge()
	if _, ok := s.Forward(0, target(old)); !ok {
		t.Fatal("stub unroutable before growth")
	}

	grown := l.addStub("grown", "Tokyo", t1b, t1a)
	second := l.site(t1b, "Tokyo")
	s.FailLink(second.ID)
	s.Announce(0, l.origin.ASN, second.ID, 0)
	s.Converge()
	if !s.LinkFailed(second.ID) || s.BestRoute(0, t1b.ASN).Link == second.ID {
		t.Fatal("a failed link added after New carried the announcement")
	}
	s.RestoreLink(second.ID)
	s.Converge()
	for _, a := range []*topology.AS{old, grown} {
		link, delay, ok := s.CatchmentEntry(0, target(a))
		res, ok2 := s.Forward(0, target(a))
		if !ok || !ok2 || link != res.EntryLink || delay != res.Delay {
			t.Fatalf("AS%d after growth: CatchmentEntry (%d, %v, %v) vs Forward (%d, %v, %v)",
				a.ASN, link, delay, ok, res.EntryLink, res.Delay, ok2)
		}
	}
	if got := s.BestRoute(0, grown.ASN); got == nil || got.Neighbor != t1b.ASN {
		t.Fatalf("grown stub's best route %+v, want one via T1B's new site", got)
	}
}

func TestValleyFreeExport(t *testing.T) {
	// origin -> T1A; T1B peers with T1A; T1C peers only with T1B. T1B learns
	// the route (customer route at T1A exports to peers), but must not
	// re-export its peer-learned route to its peer T1C.
	l := newLab()
	t1a := l.addT1("T1A", "New York")
	t1b := l.addT1("T1B", "London")
	t1c := l.addT1("T1C", "Tokyo")
	l.peerT1s(t1a, t1b)
	l.peerT1s(t1b, t1c)
	siteLink := l.site(t1a, "New York")

	s := New(l.topo, DefaultConfig())
	s.Announce(0, l.origin.ASN, siteLink.ID, 0)
	s.Converge()

	if ri := s.BestRoute(0, t1c.ASN); ri != nil {
		t.Errorf("T1C learned route %v through peer chain; valley-free export violated", ri.Path)
	}
	if ri := s.BestRoute(0, t1b.ASN); ri == nil {
		t.Error("T1B should learn the route from its peer T1A (customer route at T1A)")
	}
}

func TestCustomerRoutePreferredOverPeer(t *testing.T) {
	// T1A hosts a site (customer route). T1A also peers with T1B which hosts
	// another site. T1A must prefer its own customer route even though both
	// paths have length 1 vs 2.
	l := newLab()
	t1a := l.addT1("T1A", "New York")
	t1b := l.addT1("T1B", "London")
	l.peerT1s(t1a, t1b)
	siteA := l.site(t1a, "New York")
	siteB := l.site(t1b, "London")

	s := New(l.topo, DefaultConfig())
	s.Announce(0, l.origin.ASN, siteB.ID, 0) // B first: arrival order would favor B
	s.Engine.RunFor(10 * time.Minute)
	s.Announce(0, l.origin.ASN, siteA.ID, 0)
	s.Converge()

	ri := s.BestRoute(0, t1a.ASN)
	if ri == nil {
		t.Fatal("T1A has no route")
	}
	if ri.Link != siteA.ID {
		t.Errorf("T1A best via link %d, want its customer link %d (LOCAL_PREF must dominate arrival order)", ri.Link, siteA.ID)
	}
	if ri.LocalPref != 300 {
		t.Errorf("customer route LOCAL_PREF = %d, want 300", ri.LocalPref)
	}
}

func TestShorterPathPreferred(t *testing.T) {
	// Client has two providers: T1A (direct site) and T1B reached via a
	// transit AS in between (longer path). Shorter AS path must win even if
	// the longer-path announcement arrives first.
	l := newLab()
	t1a := l.addT1("T1A", "New York")
	t1b := l.addT1("T1B", "London")
	l.peerT1s(t1a, t1b)
	stub := l.addStub("client", "Paris", t1a, t1b)
	siteA := l.site(t1a, "New York")

	s := New(l.topo, DefaultConfig())
	s.Announce(0, l.origin.ASN, siteA.ID, 0)
	s.Converge()

	// Paths: via T1A = [T1A, origin] (len 2); via T1B = [T1B, T1A, origin]
	// (len 3).
	ri := s.BestRoute(0, stub.ASN)
	if ri == nil {
		t.Fatal("no route at stub")
	}
	if ri.Neighbor != t1a.ASN {
		t.Errorf("stub chose AS%d, want T1A (shorter path)", ri.Neighbor)
	}
}

func TestArrivalOrderBreaksTies(t *testing.T) {
	// Client multihomed to two tier-1s, each hosting one site: equal
	// LOCAL_PREF (both providers), equal path length. The site announced
	// first must win; reversing the order must flip the catchment.
	runOrder := func(firstA bool) topology.LinkID {
		l := newLab()
		t1a := l.addT1("T1A", "New York")
		t1b := l.addT1("T1B", "London")
		l.peerT1s(t1a, t1b)
		stub := l.addStub("client", "Madrid", t1a, t1b)
		siteA := l.site(t1a, "New York")
		siteB := l.site(t1b, "London")

		s := New(l.topo, tieCfg())
		first, second := siteA, siteB
		if !firstA {
			first, second = siteB, siteA
		}
		s.Announce(0, l.origin.ASN, first.ID, 0)
		s.Engine.RunFor(6 * time.Minute)
		s.Announce(0, l.origin.ASN, second.ID, 0)
		s.Converge()

		res, ok := s.Forward(0, target(stub))
		if !ok {
			panic("no route")
		}
		_ = siteB
		return res.EntryLink
	}

	// Identify which link is which by rebuilding identically: link IDs are
	// deterministic, so compare across the two runs.
	gotAFirst := runOrder(true)
	gotBFirst := runOrder(false)
	if gotAFirst == gotBFirst {
		t.Errorf("announcement order did not flip the tie-broken catchment: both runs landed on link %d", gotAFirst)
	}
}

func TestArrivalOrderDisabledUsesRouterID(t *testing.T) {
	build := func(firstA bool) (topology.LinkID, topology.LinkID, topology.LinkID) {
		l := newLab()
		t1a := l.addT1("T1A", "New York")
		t1b := l.addT1("T1B", "London")
		t1a.RouterID, t1b.RouterID = 1, 2
		l.peerT1s(t1a, t1b)
		stub := l.addStub("client", "Madrid", t1a, t1b)
		siteA := l.site(t1a, "New York")
		siteB := l.site(t1b, "London")

		cfg := tieCfg()
		cfg.ArrivalOrderTieBreak = false
		s := New(l.topo, cfg)
		first, second := siteA, siteB
		if !firstA {
			first, second = siteB, siteA
		}
		s.Announce(0, l.origin.ASN, first.ID, 0)
		s.Engine.RunFor(6 * time.Minute)
		s.Announce(0, l.origin.ASN, second.ID, 0)
		s.Converge()
		res, ok := s.Forward(0, target(stub))
		if !ok {
			panic("no route")
		}
		return res.EntryLink, siteA.ID, siteB.ID
	}
	got1, siteA, _ := build(true)
	got2, _, _ := build(false)
	if got1 != got2 {
		t.Error("with arrival-order tie-break disabled, announcement order still changed the outcome")
	}
	if got1 != siteA {
		t.Errorf("lowest router ID (T1A) should win; got link %d, want %d", got1, siteA)
	}
}

func TestPrependingLengthensPath(t *testing.T) {
	l := newLab()
	t1a := l.addT1("T1A", "New York")
	t1b := l.addT1("T1B", "London")
	l.peerT1s(t1a, t1b)
	stub := l.addStub("client", "Madrid", t1a, t1b)
	siteA := l.site(t1a, "New York")
	siteB := l.site(t1b, "London")

	s := New(l.topo, DefaultConfig())
	// Announce A first (would win the tie) but with 2 prepends: B's shorter
	// path must beat A's head start.
	s.Announce(0, l.origin.ASN, siteA.ID, 2)
	s.Engine.RunFor(6 * time.Minute)
	s.Announce(0, l.origin.ASN, siteB.ID, 0)
	s.Converge()

	res, ok := s.Forward(0, target(stub))
	if !ok {
		t.Fatal("no route")
	}
	if res.EntryLink != siteB.ID {
		t.Errorf("prepending ignored: catchment link %d, want %d", res.EntryLink, siteB.ID)
	}
}

func TestWithdrawalFailsOver(t *testing.T) {
	l := newLab()
	t1a := l.addT1("T1A", "New York")
	t1b := l.addT1("T1B", "London")
	l.peerT1s(t1a, t1b)
	stub := l.addStub("client", "Madrid", t1a, t1b)
	siteA := l.site(t1a, "New York")
	siteB := l.site(t1b, "London")

	s := New(l.topo, tieCfg())
	s.Announce(0, l.origin.ASN, siteA.ID, 0)
	s.Engine.RunFor(6 * time.Minute)
	s.Announce(0, l.origin.ASN, siteB.ID, 0)
	s.Converge()

	res, _ := s.Forward(0, target(stub))
	if res.EntryLink != siteA.ID {
		t.Fatalf("precondition: first-announced site A should hold the catchment")
	}

	s.Withdraw(0, siteA.ID)
	s.Converge()
	res, ok := s.Forward(0, target(stub))
	if !ok {
		t.Fatal("no route after withdrawal of one of two sites")
	}
	if res.EntryLink != siteB.ID {
		t.Errorf("after withdrawing A, catchment link = %d, want %d", res.EntryLink, siteB.ID)
	}

	s.Withdraw(0, siteB.ID)
	s.Converge()
	if _, ok := s.Forward(0, target(stub)); ok {
		t.Error("route survived withdrawal of all sites")
	}
	if n := s.ReachableCount(0); n != 0 {
		t.Errorf("%d ASes still have routes after full withdrawal", n)
	}
}

func TestHotPotatoIntraAS(t *testing.T) {
	// One tier-1 with PoPs in New York and Tokyo hosts two sites (one at
	// each PoP). A client entering at the New York side must reach the NY
	// site; a client entering at the Tokyo side must reach the Tokyo site.
	l := newLab()
	t1 := l.addT1("T1", "New York", "Tokyo")
	east := l.addStub("us-client", "Boston", t1)
	west := l.addStub("jp-client", "Osaka", t1)
	siteNY := l.site(t1, "New York")
	siteTK := l.site(t1, "Tokyo")

	s := New(l.topo, DefaultConfig())
	s.Announce(0, l.origin.ASN, siteNY.ID, 0)
	s.Engine.RunFor(6 * time.Minute)
	s.Announce(0, l.origin.ASN, siteTK.ID, 0)
	s.Converge()

	resE, ok := s.Forward(0, target(east))
	if !ok {
		t.Fatal("east client unroutable")
	}
	if resE.EntryLink != siteNY.ID {
		t.Errorf("east client entered via link %d, want NY site %d (hot potato)", resE.EntryLink, siteNY.ID)
	}
	resW, ok := s.Forward(0, target(west))
	if !ok {
		t.Fatal("west client unroutable")
	}
	if resW.EntryLink != siteTK.ID {
		t.Errorf("west client entered via link %d, want Tokyo site %d (hot potato)", resW.EntryLink, siteTK.ID)
	}
	// The Tokyo client's path should also be far quicker than a trans-
	// pacific detour.
	if resW.Delay > 30*time.Millisecond {
		t.Errorf("jp-client delay %v implausibly high for an in-region site", resW.Delay)
	}
}

func TestAnnouncementOrderDoesNotAffectIntraAS(t *testing.T) {
	// §4.2/§5.1: BGP announcement order must not affect site-level
	// catchments within one AS, because interior routing decides there.
	run := func(nyFirst bool) topology.LinkID {
		l := newLab()
		t1 := l.addT1("T1", "New York", "Tokyo")
		east := l.addStub("us-client", "Boston", t1)
		siteNY := l.site(t1, "New York")
		siteTK := l.site(t1, "Tokyo")
		s := New(l.topo, DefaultConfig())
		first, second := siteNY, siteTK
		if !nyFirst {
			first, second = siteTK, siteNY
		}
		s.Announce(0, l.origin.ASN, first.ID, 0)
		s.Engine.RunFor(6 * time.Minute)
		s.Announce(0, l.origin.ASN, second.ID, 0)
		s.Converge()
		res, ok := s.Forward(0, target(east))
		if !ok {
			panic("unroutable")
		}
		return res.EntryLink
	}
	if run(true) != run(false) {
		t.Error("intra-AS catchment depended on announcement order; hot potato should decide")
	}
}

func TestDuplicateAnnouncementKeepsArrivalTime(t *testing.T) {
	l := newLab()
	t1a := l.addT1("T1A", "New York")
	t1b := l.addT1("T1B", "London")
	l.peerT1s(t1a, t1b)
	stub := l.addStub("client", "Madrid", t1a, t1b)
	siteA := l.site(t1a, "New York")
	siteB := l.site(t1b, "London")

	s := New(l.topo, tieCfg())
	s.Announce(0, l.origin.ASN, siteA.ID, 0)
	s.Engine.RunFor(6 * time.Minute)
	s.Announce(0, l.origin.ASN, siteB.ID, 0)
	s.Converge()
	// Re-announce A: a duplicate must not reset A's arrival time (A stays
	// oldest and keeps winning).
	s.Announce(0, l.origin.ASN, siteA.ID, 0)
	s.Converge()

	res, _ := s.Forward(0, target(stub))
	if res.EntryLink != siteA.ID {
		t.Errorf("duplicate re-announcement changed catchment to link %d", res.EntryLink)
	}
}

func TestWithdrawUnknownIsNoop(t *testing.T) {
	l := newLab()
	t1a := l.addT1("T1A", "New York")
	siteA := l.site(t1a, "New York")
	s := New(l.topo, DefaultConfig())
	s.Withdraw(0, siteA.ID) // nothing announced yet
	s.Withdraw(7, siteA.ID) // unknown prefix
	s.Converge()
	if n := s.ReachableCount(0); n != 0 {
		t.Errorf("ReachableCount = %d after no-op withdrawals", n)
	}
}

func TestMultiplePrefixesIndependent(t *testing.T) {
	l := newLab()
	t1a := l.addT1("T1A", "New York")
	t1b := l.addT1("T1B", "London")
	l.peerT1s(t1a, t1b)
	stub := l.addStub("client", "Madrid", t1a, t1b)
	siteA := l.site(t1a, "New York")
	siteB := l.site(t1b, "London")

	s := New(l.topo, DefaultConfig())
	s.Announce(0, l.origin.ASN, siteA.ID, 0)
	s.Announce(1, l.origin.ASN, siteB.ID, 0)
	s.Converge()

	r0, ok0 := s.Forward(0, target(stub))
	r1, ok1 := s.Forward(1, target(stub))
	if !ok0 || !ok1 {
		t.Fatal("prefix unroutable")
	}
	if r0.EntryLink != siteA.ID || r1.EntryLink != siteB.ID {
		t.Errorf("prefix catchments crossed: p0→%d p1→%d", r0.EntryLink, r1.EntryLink)
	}
}

func TestAnnouncePanics(t *testing.T) {
	l := newLab()
	t1a := l.addT1("T1A", "New York")
	siteA := l.site(t1a, "New York")
	s := New(l.topo, DefaultConfig())

	for name, fn := range map[string]func(){
		"unknown link":    func() { s.Announce(0, l.origin.ASN, 9999, 0) },
		"foreign link":    func() { s.Announce(0, t1a.ASN+1000, siteA.ID, 0) },
		"negative prepnd": func() { s.Announce(0, l.origin.ASN, siteA.ID, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
