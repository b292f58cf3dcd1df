package orchestrator

import (
	"testing"
	"time"

	"anyopt/internal/bgp"
	"anyopt/internal/testbed"
	"anyopt/internal/topology"
)

func setup(t *testing.T) (*Orchestrator, *testbed.Testbed, *bgp.Sim) {
	t.Helper()
	topo, err := topology.Generate(topology.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	tb, err := testbed.New(topo, testbed.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sim := bgp.New(topo, bgp.DefaultConfig())
	o, err := New(tb, sim)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Close)
	return o, tb, sim
}

func TestAnnounceViaBGPSessionsMatchesDirectAPI(t *testing.T) {
	o, tb, sim := setup(t)

	// Announce sites 1, 4, 6 through real BGP sessions, one flush per step
	// so announcement order is controlled.
	for _, siteID := range []int{1, 4, 6} {
		if err := o.Announce(siteID, 0, 0, 0); err != nil {
			t.Fatal(err)
		}
		if n := o.Flush(6 * time.Minute); n != 1 {
			t.Fatalf("flush applied %d actions, want 1", n)
		}
	}
	if got := len(sim.AppendAnnouncedLinks(0, nil)); got != 3 {
		t.Fatalf("announced links = %d, want 3", got)
	}
	viaBGP := sim.CatchmentMap(0, tb.Topo.Targets)

	// The same deployment through the direct API on a fresh sim.
	sim2 := bgp.New(tb.Topo, bgp.DefaultConfig())
	dep := tb.NewDeployment(sim2, 0)
	dep.AnnounceSites(1, 4, 6)
	direct := sim2.CatchmentMap(0, tb.Topo.Targets)

	if len(viaBGP) != len(direct) {
		t.Fatalf("catchment sizes differ: %d vs %d", len(viaBGP), len(direct))
	}
	for asn, link := range direct {
		if viaBGP[asn] != link {
			t.Fatalf("AS%d: BGP-driven catchment %d != direct %d", asn, viaBGP[asn], link)
		}
	}
}

func TestWithdrawViaBGP(t *testing.T) {
	o, _, sim := setup(t)
	if err := o.Announce(3, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	o.Flush(time.Minute)
	if len(sim.AppendAnnouncedLinks(0, nil)) != 1 {
		t.Fatal("announce did not reach the sim")
	}
	if err := o.Withdraw(3, 0); err != nil {
		t.Fatal(err)
	}
	o.Flush(time.Minute)
	if got := len(sim.AppendAnnouncedLinks(0, nil)); got != 0 {
		t.Fatalf("links still announced after withdrawal: %d", got)
	}
	if n := sim.ReachableCount(0); n != 0 {
		t.Fatalf("%d ASes still route the prefix", n)
	}
}

func TestPeerLinkSteeringByCommunity(t *testing.T) {
	o, tb, sim := setup(t)
	// Announce via site 4's first peering link (ordinal 1).
	if err := o.Announce(4, 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	o.Flush(time.Minute)
	links := sim.AppendAnnouncedLinks(0, nil)
	if len(links) != 1 {
		t.Fatalf("announced links = %v", links)
	}
	if want := tb.Site(4).PeerLinks[0]; links[0] != want {
		t.Fatalf("announced link %d, want peer link %d", links[0], want)
	}
}

func TestPrependingViaASPath(t *testing.T) {
	o, tb, sim := setup(t)
	if err := o.Announce(1, 0, 0, 2); err != nil {
		t.Fatal(err)
	}
	o.Flush(time.Minute)
	// A client's route should carry the prepended path (origin counted 3x).
	stub := tb.Topo.Stubs()[0]
	ri := sim.BestRoute(0, stub.ASN)
	if ri == nil {
		t.Fatal("no route at stub")
	}
	count := 0
	for _, hop := range ri.Path {
		if hop == tb.Origin {
			count++
		}
	}
	if count != 3 {
		t.Fatalf("origin appears %d times in path %v, want 3 (2 prepends)", count, ri.Path)
	}
}

func TestSecondPrefixIndependent(t *testing.T) {
	o, tb, sim := setup(t)
	if err := o.Announce(1, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := o.Announce(6, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	o.Flush(time.Minute)
	l0, l1 := sim.AppendAnnouncedLinks(0, nil), sim.AppendAnnouncedLinks(1, nil)
	if len(l0) != 1 || l0[0] != tb.Site(1).TransitLink {
		t.Errorf("prefix 0 links = %v", l0)
	}
	if len(l1) != 1 || l1[0] != tb.Site(6).TransitLink {
		t.Errorf("prefix 1 links = %v", l1)
	}
}

func TestErrors(t *testing.T) {
	o, _, _ := setup(t)
	if err := o.Announce(99, 0, 0, 0); err == nil {
		t.Error("unknown site accepted")
	}
	if err := o.Announce(1, 99, 0, 0); err == nil {
		t.Error("unknown prefix accepted")
	}
	if err := o.Announce(1, 0, 99, 0); err == nil {
		t.Error("unknown link ordinal accepted")
	}
	if err := o.Withdraw(99, 0); err == nil {
		t.Error("withdraw at unknown site accepted")
	}
	if err := o.Withdraw(1, 99); err == nil {
		t.Error("withdraw of unknown prefix accepted")
	}
}

func TestFlushEmptyQueue(t *testing.T) {
	o, _, _ := setup(t)
	if n := o.Flush(time.Minute); n != 0 {
		t.Fatalf("empty flush applied %d actions", n)
	}
}
