package topology

import (
	"testing"
	"time"

	"anyopt/internal/geo"
)

func mustGen(t *testing.T, p Params) *Topology {
	t.Helper()
	topo, err := Generate(p)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return topo
}

func TestGenerateValidates(t *testing.T) {
	topo := mustGen(t, TestParams())
	if err := topo.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := mustGen(t, TestParams())
	b := mustGen(t, TestParams())
	if a.NumASes() != b.NumASes() || len(a.Links) != len(b.Links) {
		t.Fatalf("sizes differ: (%d,%d) vs (%d,%d)", a.NumASes(), len(a.Links), b.NumASes(), len(b.Links))
	}
	for i, la := range a.Links {
		lb := b.Links[i]
		if la.From != lb.From || la.To != lb.To || la.Rel != lb.Rel || la.Delay != lb.Delay {
			t.Fatalf("link %d differs: %+v vs %+v", i, la, lb)
		}
	}
	for _, as := range a.ASes() {
		bs := b.AS(as.ASN)
		if bs == nil || as.Name != bs.Name || as.RouterID != bs.RouterID || as.Multipath != bs.Multipath {
			t.Fatalf("AS %d differs", as.ASN)
		}
	}
	if len(a.Targets) != len(b.Targets) {
		t.Fatalf("target counts differ")
	}
	for i := range a.Targets {
		if a.Targets[i] != b.Targets[i] {
			t.Fatalf("target %d differs: %+v vs %+v", i, a.Targets[i], b.Targets[i])
		}
	}
}

// TestLinkSlotsAndExitDistances pins what the simulator reads per (link,
// endpoint): the link's position in the endpoint's adjacency, which is in
// ascending link-ID order, and the exit distance recomputed on demand.
func TestLinkSlotsAndExitDistances(t *testing.T) {
	topo := mustGen(t, TestParams())
	for i, a := range topo.ASes() {
		if topo.Index(a.ASN) != i {
			t.Fatalf("AS %d has index %d, want %d", a.ASN, topo.Index(a.ASN), i)
		}
		links := topo.LinksOf(a.ASN)
		for j, l := range links {
			if l.Slot(a.ASN) != j {
				t.Fatalf("link %d sits at %d in AS %d's adjacency, Slot says %d", l.ID, j, a.ASN, l.Slot(a.ASN))
			}
			if j > 0 && links[j-1].ID >= l.ID {
				t.Fatalf("AS %d's adjacency is not in ascending link-ID order at %d", a.ASN, j)
			}
			exit := a.PoPCoord(l.PoPAt(a.ASN))
			if len(a.PoPs) == 0 {
				nb := topo.AS(l.Other(a.ASN))
				exit = nb.PoPCoord(l.PoPAt(nb.ASN))
			}
			if want := geo.DistanceKm(a.Coord, exit); l.ExitKm(a.ASN) != want {
				t.Fatalf("link %d at AS %d: ExitKm %v, recomputed %v", l.ID, a.ASN, l.ExitKm(a.ASN), want)
			}
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	p := TestParams()
	a := mustGen(t, p)
	p.Seed = 2
	b := mustGen(t, p)
	if len(a.Links) == len(b.Links) {
		same := true
		for i := range a.Links {
			if a.Links[i].From != b.Links[i].From || a.Links[i].To != b.Links[i].To {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical link sets")
		}
	}
}

func TestCounts(t *testing.T) {
	p := TestParams()
	topo := mustGen(t, p)
	s := topo.ComputeStats()
	if s.Tier1s != p.NumTier1 {
		t.Errorf("tier1s = %d, want %d", s.Tier1s, p.NumTier1)
	}
	if s.Transits != p.NumTransit {
		t.Errorf("transits = %d, want %d", s.Transits, p.NumTransit)
	}
	if s.Stubs != p.NumStub {
		t.Errorf("stubs = %d, want %d", s.Stubs, p.NumStub)
	}
	if s.Targets != p.NumTransit+p.NumStub {
		t.Errorf("targets = %d, want %d", s.Targets, p.NumTransit+p.NumStub)
	}
	// Tier-1 clique contributes C(n,2) peer links at minimum.
	wantClique := p.NumTier1 * (p.NumTier1 - 1) / 2
	if s.PeerLinks < wantClique {
		t.Errorf("peer links = %d, want >= %d (clique)", s.PeerLinks, wantClique)
	}
	if s.MultipathASes == 0 {
		t.Error("no multipath ASes generated; Fig 4 shapes need some")
	}
	if s.DeviantASes == 0 {
		t.Error("no deviant ASes generated; Fig 4 shapes need some")
	}
}

func TestTier1Names(t *testing.T) {
	topo := mustGen(t, TestParams())
	want := map[string]bool{"Telia": true, "Zayo": true, "TATA": true, "GTT": true, "NTT": true, "Sparkle": true}
	for _, a := range topo.Tier1s() {
		delete(want, a.Name)
	}
	if len(want) != 0 {
		t.Errorf("missing testbed transit providers: %v", want)
	}
}

func TestLinkRoles(t *testing.T) {
	topo := mustGen(t, TestParams())
	for _, l := range topo.Links {
		if l.Rel == CustomerProvider {
			if l.RoleOf(l.From) != RoleProvider {
				t.Fatalf("customer side should see provider role")
			}
			if l.RoleOf(l.To) != RoleCustomer {
				t.Fatalf("provider side should see customer role")
			}
		} else {
			if l.RoleOf(l.From) != RolePeer || l.RoleOf(l.To) != RolePeer {
				t.Fatalf("peer link roles wrong")
			}
		}
		if l.Other(l.From) != l.To || l.Other(l.To) != l.From {
			t.Fatalf("Other() inconsistent")
		}
	}
}

func TestNearestPoP(t *testing.T) {
	topo := mustGen(t, TestParams())
	for _, a := range topo.Tier1s() {
		for i, pop := range a.PoPs {
			if got := topo.NearestPoP(a.ASN, pop.Coord); got != i {
				// Two PoPs could share coordinates only if cities repeat,
				// which samplePoPs prevents.
				t.Errorf("NearestPoP(%s, %s) = %d, want %d", a.Name, pop.City, got, i)
			}
		}
	}
	// Stubs have no PoPs.
	stub := topo.Stubs()[0]
	if got := topo.NearestPoP(stub.ASN, geo.Coord{}); got != -1 {
		t.Errorf("NearestPoP(stub) = %d, want -1", got)
	}
}

func TestIGPCostAndDelay(t *testing.T) {
	topo := mustGen(t, TestParams())
	t1 := topo.Tier1s()[0]
	if len(t1.PoPs) < 2 {
		t.Skip("tier-1 with one PoP")
	}
	if c := topo.IGPCost(t1.ASN, 0, 0); c != 0 {
		t.Errorf("IGP cost to self = %v, want 0", c)
	}
	if d := topo.IGPDelay(t1.ASN, 0, 0); d != 0 {
		t.Errorf("IGP delay to self = %v, want 0", d)
	}
	c01 := topo.IGPCost(t1.ASN, 0, 1)
	if c01 <= 0 {
		t.Errorf("IGP cost between distinct PoPs = %v, want > 0", c01)
	}
	if c01 != topo.IGPCost(t1.ASN, 1, 0) {
		t.Error("IGP cost not symmetric")
	}
	if topo.IGPDelay(t1.ASN, 0, 1) <= 0 {
		t.Error("IGP delay between distinct PoPs should be positive")
	}
}

func TestAddASAddLink(t *testing.T) {
	topo := mustGen(t, TestParams())
	before := topo.NumASes()
	origin := topo.AddAS("anycast-net", TierOrigin, geo.Coord{Lat: 42.36, Lon: -71.06})
	if topo.NumASes() != before+1 {
		t.Fatal("AddAS did not insert")
	}
	t1 := topo.Tier1s()[0]
	l := topo.AddLink(origin.ASN, t1.ASN, CustomerProvider, -1, 0)
	if l.Delay <= 0 {
		t.Error("AddLink produced non-positive delay")
	}
	found := false
	for _, ll := range topo.LinksOf(origin.ASN) {
		if ll == l {
			found = true
		}
	}
	if !found {
		t.Error("adjacency not updated for new link")
	}
	if l.RoleOf(origin.ASN) != RoleProvider {
		t.Error("origin should see tier-1 as provider")
	}
}

func TestAddLinkUnknownASPanics(t *testing.T) {
	topo := mustGen(t, TestParams())
	defer func() {
		if recover() == nil {
			t.Fatal("AddLink with unknown AS did not panic")
		}
	}()
	topo.AddLink(9999999, 100, PeerPeer, -1, -1)
}

func TestParamsValidate(t *testing.T) {
	good := TestParams()
	if err := good.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := []func(*Params){
		func(p *Params) { p.NumTier1 = 1 },
		func(p *Params) { p.NumTransit = 0 },
		func(p *Params) { p.NumStub = 0 },
		func(p *Params) { p.Tier1PoPMin = 0 },
		func(p *Params) { p.Tier1PoPMax = p.Tier1PoPMin - 1 },
		func(p *Params) { p.TransitPoPMin = 0 },
		func(p *Params) { p.StubProvidersMax = 0 },
		func(p *Params) { p.TransitProvidersMax = 0 },
		func(p *Params) { p.FracMultipath = 1.5 },
		func(p *Params) { p.FracDeviant = -0.1 },
	}
	for i, mod := range bad {
		p := TestParams()
		mod(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("bad params case %d validated", i)
		}
		if _, err := Generate(p); err == nil {
			t.Errorf("Generate accepted bad params case %d", i)
		}
	}
}

func TestLinkDelaysPlausible(t *testing.T) {
	topo := mustGen(t, TestParams())
	for _, l := range topo.Links {
		if l.Delay < 100*time.Microsecond || l.Delay > 200*time.Millisecond {
			fa, ta := topo.AS(l.From), topo.AS(l.To)
			t.Errorf("link %s-%s delay %v outside plausible one-way range", fa.Name, ta.Name, l.Delay)
		}
	}
}

func TestTargetsSortedUniqueAddrs(t *testing.T) {
	topo := mustGen(t, TestParams())
	for i := 1; i < len(topo.Targets); i++ {
		if !topo.Targets[i-1].Addr.Less(topo.Targets[i].Addr) {
			t.Fatalf("targets not strictly sorted at %d: %v vs %v",
				i, topo.Targets[i-1].Addr, topo.Targets[i].Addr)
		}
	}
}

func TestStubsMostlyBuyLocalTransit(t *testing.T) {
	topo := mustGen(t, TestParams())
	local, total := 0, 0
	for _, s := range topo.Stubs() {
		for _, l := range topo.LinksOf(s.ASN) {
			if l.RoleOf(s.ASN) != RoleProvider {
				continue
			}
			prov := topo.AS(l.Other(s.ASN))
			pop := l.PoPAt(prov.ASN)
			if geo.DistanceKm(s.Coord, prov.PoPCoord(pop)) < 5000 {
				local++
			}
			total++
		}
	}
	if total == 0 {
		t.Fatal("no stub provider links")
	}
	if frac := float64(local) / float64(total); frac < 0.5 {
		t.Errorf("only %.0f%% of stub transit attachments are within 5000 km; geography-weighted attachment is broken", frac*100)
	}
}

func BenchmarkGenerateDefault(b *testing.B) {
	p := DefaultParams()
	for i := 0; i < b.N; i++ {
		topo, err := Generate(p)
		if err != nil {
			b.Fatal(err)
		}
		_ = topo
	}
}
