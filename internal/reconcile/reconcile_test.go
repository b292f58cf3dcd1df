package reconcile_test

// The keystone differential test: a campaign healed by the cone-scoped
// reconciler must converge byte-identical to a from-scratch full campaign on
// the post-churn topology — at different worker counts on either side, and
// with a harsh fault scenario layered on top of the churn. Byte-identity is
// checked on the canonical campaign serialization (campaign.SaveSnapshot),
// which covers the provider and site preference stores, the RTT table, the
// announcement order, the experiment count, and the quarantine set.

import (
	"bytes"
	"testing"

	"anyopt"
	"anyopt/internal/campaign"
	"anyopt/internal/core/prefs"
	"anyopt/internal/fault"
	"anyopt/internal/reconcile"
	"anyopt/internal/topology"
)

// buildSystem makes a test-scale system with the given campaign concurrency
// and fault configuration (nil = fault-free).
func buildSystem(t testing.TB, workers int, faults *fault.Config) *anyopt.System {
	t.Helper()
	opts := anyopt.DefaultOptions()
	opts.Discovery.Workers = workers
	opts.Discovery.Faults = faults
	sys, err := anyopt.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// churnScenario parameterizes one differential convergence run.
type churnScenario struct {
	name        string
	churnSeed   int64
	events      int
	kinds       []fault.ChurnKind
	liveWorkers int
	refWorkers  int
	faults      func() *fault.Config
}

func harshFaults() *fault.Config {
	cfg, err := fault.Scenario("harsh", 7)
	if err != nil {
		panic(err)
	}
	return cfg
}

func TestChurnConvergesToFullRecampaign(t *testing.T) {
	scenarios := []churnScenario{
		// Worker counts differ between the healed and reference campaigns on
		// purpose: convergence must be schedule-deterministic, not an
		// artifact of matching concurrency.
		{name: "faultfree_w1_vs_w4", churnSeed: 3, events: 2,
			liveWorkers: 1, refWorkers: 4},
		{name: "faultfree_w4_vs_w2", churnSeed: 11, events: 3,
			liveWorkers: 4, refWorkers: 2},
		// Harsh faults on top of the churn: quorum re-measurement must heal
		// the repair to the same rows the (equally faulted) reference
		// campaign converges to. Kinds exclude link-down so the fault layer's
		// dead-site detector sees the same live site set on both paths.
		{name: "harsh", churnSeed: 5, events: 2,
			kinds:       []fault.ChurnKind{fault.ChurnLinkCost, fault.ChurnPolicyFlip},
			liveWorkers: 4, refWorkers: 1, faults: harshFaults},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			testChurnConvergence(t, sc)
		})
	}
}

func testChurnConvergence(t *testing.T, sc churnScenario) {
	var liveFaults, refFaults *fault.Config
	if sc.faults != nil {
		liveFaults, refFaults = sc.faults(), sc.faults()
	}

	// Live system: full campaign on the pre-churn topology, walker warmed on
	// the pre-churn baseline.
	live := buildSystem(t, sc.liveWorkers, liveFaults)
	if err := live.RunDiscovery(); err != nil {
		t.Fatal(err)
	}
	snap := live.CurrentSnapshot()
	walker := reconcile.NewCatchmentWalker(live.TB, live.Options().Discovery.SimCfg)
	walker.Refresh()

	// Plan and apply persistent churn to the live topology.
	events := fault.PlanChurn(live.Topo, sc.churnSeed, sc.events, sc.kinds)
	if len(events) == 0 {
		t.Fatal("no churn events planned")
	}
	delta, err := fault.ApplyChurn(live.Topo, events)
	if err != nil {
		t.Fatal(err)
	}
	cone := reconcile.StructuralCone(live.Topo, live.TB.Origin, delta)
	structural := len(cone.Clients)
	walker.ExpandCone(cone)
	// Soundness: every client whose full-deployment catchment demonstrably
	// moved must already be inside the structural over-approximation.
	if cone.Observed != 0 {
		t.Errorf("catchment walker found %d moved clients outside the structural cone (%d structural)",
			cone.Observed, structural)
	}
	if len(cone.Clients) == 0 {
		t.Fatalf("empty cone for %s", delta)
	}

	res, err := reconcile.Repair(live.TB, snap, cone, reconcile.RepairConfig{
		Discovery: live.Options().Discovery,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ProbedTargets != len(cone.Clients) {
		t.Errorf("repair probed %d targets, cone has %d clients", res.ProbedTargets, len(cone.Clients))
	}
	if res.ProbedTargets >= res.TotalTargets {
		t.Errorf("cone repair re-probed everything: %d/%d targets", res.ProbedTargets, res.TotalTargets)
	}
	t.Logf("%s: cone %d/%d targets (%.1f%%), %d quorum retries",
		delta, res.ProbedTargets, res.TotalTargets,
		100*float64(res.ProbedTargets)/float64(res.TotalTargets), res.QuorumRetries)
	healed := live.PatchCampaign(res.Pred, res.RTT, res.AnnOrder, res.Experiments, res.Quarantined, nil)

	// Reference: an identically seeded fresh system, the same churn applied
	// to its (identical) topology, then a from-scratch full campaign.
	ref := buildSystem(t, sc.refWorkers, refFaults)
	if _, err := fault.ApplyChurn(ref.Topo, events); err != nil {
		t.Fatal(err)
	}
	if err := ref.RunDiscovery(); err != nil {
		t.Fatal(err)
	}
	refSnap := ref.CurrentSnapshot()

	var healedBytes, refBytes bytes.Buffer
	if err := campaign.SaveSnapshot(&healedBytes, healed); err != nil {
		t.Fatal(err)
	}
	if err := campaign.SaveSnapshot(&refBytes, refSnap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(healedBytes.Bytes(), refBytes.Bytes()) {
		t.Errorf("healed campaign diverges from the from-scratch post-churn campaign\nhealed: %d bytes\nref:    %d bytes",
			healedBytes.Len(), refBytes.Len())
	}
}

func TestRepairRejectsEmptyCone(t *testing.T) {
	sys := buildSystem(t, 0, nil)
	if err := sys.RunDiscovery(); err != nil {
		t.Fatal(err)
	}
	cone := &reconcile.Cone{Clients: nil}
	if _, err := reconcile.Repair(sys.TB, sys.CurrentSnapshot(), cone, reconcile.RepairConfig{
		Discovery: sys.Options().Discovery,
	}); err == nil {
		t.Fatal("empty cone repaired without error")
	}
}

func TestStructuralConeStubAccessLinkIsSmall(t *testing.T) {
	sys := buildSystem(t, 0, nil)
	topo := sys.Topo
	// Find a stub's access link: one endpoint a stub AS with a measurement
	// target, and make sure StructuralCone confines the event to the stub and
	// its provider rather than the whole client population.
	var link *topology.Link
	for _, l := range topo.Links {
		if topo.AS(l.From).Tier == topology.TierStub || topo.AS(l.To).Tier == topology.TierStub {
			link = l
			break
		}
	}
	if link == nil {
		t.Skip("no stub link in topology")
	}
	delta := &fault.RoutingDelta{Events: []fault.AppliedEvent{{
		ChurnEvent: fault.ChurnEvent{Kind: fault.ChurnLinkDown, Link: link.ID},
	}}}
	cone := reconcile.StructuralCone(topo, sys.TB.Origin, delta)
	total := len(topo.Targets)
	if frac := float64(len(cone.Clients)) / float64(total); frac > 0.10 {
		t.Errorf("stub access-link flap cone covers %.1f%% of targets (%d/%d), want <= 10%%",
			100*frac, len(cone.Clients), total)
	}
	stub := link.From
	if topo.AS(link.To).Tier == topology.TierStub {
		stub = link.To
	}
	if !cone.Clients[prefs.Client(stub)] {
		t.Errorf("cone misses the stub endpoint AS%d", stub)
	}
}

func TestMarkStaleAndClearRepaired(t *testing.T) {
	cone := &reconcile.Cone{Clients: map[prefs.Client]bool{10: true, 20: true}}
	marked := reconcile.MarkStale(nil, cone, 3)
	if len(marked) != 2 || marked[10] != 3 || marked[20] != 3 {
		t.Fatalf("marked = %v", marked)
	}
	// Re-marking at a later generation must not advance the recorded data
	// generation: the row still reflects gen 3's campaign.
	cone2 := &reconcile.Cone{Clients: map[prefs.Client]bool{20: true, 30: true}}
	marked2 := reconcile.MarkStale(marked, cone2, 5)
	if marked2[20] != 3 {
		t.Errorf("re-mark advanced client 20's data generation to %d", marked2[20])
	}
	if marked2[30] != 5 {
		t.Errorf("client 30 marked at %d, want 5", marked2[30])
	}
	if marked[30] != 0 || len(marked) != 2 {
		t.Error("MarkStale mutated its input")
	}
	cleared := reconcile.ClearRepaired(marked2, cone, 6)
	if len(cleared) != 1 || cleared[30] != 5 {
		t.Fatalf("cleared = %v", cleared)
	}
	if rest := reconcile.ClearRepaired(cleared, cone2, 6); rest != nil {
		t.Fatalf("fully repaired staleness = %v, want nil", rest)
	}

	// A cone client whose mark is at (or after) the generation the repair
	// measured against was re-churned while the repair ran: its mark must
	// survive until its own queued repair commits, even though the client is
	// in the repaired cone.
	raced := reconcile.ClearRepaired(map[prefs.Client]uint64{10: 3, 20: 6}, cone, 6)
	if len(raced) != 1 || raced[20] != 6 {
		t.Fatalf("racing churn mark cleared: %v, want map[20:6]", raced)
	}
}

// TestConeMergeLazyAlloc is the nil-map regression: the zero Cone must be a
// valid Merge target.
func TestConeMergeLazyAlloc(t *testing.T) {
	dst := &reconcile.Cone{Clients: map[prefs.Client]bool{1: true}}
	src := &reconcile.Cone{
		Clients:  map[prefs.Client]bool{2: true, 7: true},
		Observed: 1,
	}
	dst.Merge(src)
	if !dst.Clients[1] || !dst.Clients[2] || !dst.Clients[7] || dst.Observed != 1 {
		t.Fatalf("merged cone = %+v", dst)
	}
	empty := &reconcile.Cone{}
	empty.Merge(src)
	if !empty.Clients[2] || !empty.Clients[7] {
		t.Fatalf("merge into zero-value cone = %+v", empty)
	}
}

func TestHealthMachine(t *testing.T) {
	var m reconcile.Machine
	if m.State() != reconcile.HealthFresh {
		t.Fatalf("initial state %v", m.State())
	}
	m.OnChurn()
	if m.State() != reconcile.HealthReconciling {
		t.Fatalf("after churn: %v", m.State())
	}
	m.OnRepair(0, nil)
	if m.State() != reconcile.HealthFresh || m.Failures() != 0 {
		t.Fatalf("clean repair: %v failures=%d", m.State(), m.Failures())
	}
	m.OnChurn()
	m.OnRepair(3, nil) // partial: stale rows remain
	if m.State() != reconcile.HealthDegraded {
		t.Fatalf("partial repair: %v", m.State())
	}
	m.OnRepair(3, nil)
	m.OnRepair(3, nil) // third consecutive failure cycle
	if m.State() != reconcile.HealthStale {
		t.Fatalf("after 3 failures: %v", m.State())
	}
	m.OnChurn() // stale stays stale
	if m.State() != reconcile.HealthStale {
		t.Fatalf("churn on stale: %v", m.State())
	}
	m.OnRepair(0, nil)
	if m.State() != reconcile.HealthFresh || m.Failures() != 0 {
		t.Fatalf("recovery: %v failures=%d", m.State(), m.Failures())
	}
}
