package reconcile_test

// Reconciler micro-benchmarks: cone inference cost and cone-scoped repair scope. The
// headline number is cone_frac on BenchmarkStructuralConePaper — the share of
// the target population a single access-link flap forces the reconciler to
// re-measure at paper scale. The acceptance bound is 0.10: a cone-scoped
// repair must touch at most 10% of the pairs a full re-campaign would.

import (
	"testing"

	"anyopt"
	"anyopt/internal/fault"
	"anyopt/internal/reconcile"
	"anyopt/internal/topology"
)

// stubLinkFlap finds an access link with a stub endpoint and returns a
// single-link-down routing delta for it.
func stubLinkFlap(tb testing.TB, topo *topology.Topology) *fault.RoutingDelta {
	for _, l := range topo.Links {
		if topo.AS(l.From).Tier == topology.TierStub || topo.AS(l.To).Tier == topology.TierStub {
			return &fault.RoutingDelta{Events: []fault.AppliedEvent{{
				ChurnEvent: fault.ChurnEvent{Kind: fault.ChurnLinkDown, Link: l.ID},
			}}}
		}
	}
	tb.Fatal("no stub link in topology")
	return nil
}

// BenchmarkStructuralConePaper infers the re-measurement cone for a
// single-link flap on the paper-scale topology and reports the cone's share
// of the target population (cone_frac).
func BenchmarkStructuralConePaper(b *testing.B) {
	sys, err := anyopt.New(anyopt.PaperScaleOptions())
	if err != nil {
		b.Fatal(err)
	}
	delta := stubLinkFlap(b, sys.Topo)
	var cone *reconcile.Cone
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cone = reconcile.StructuralCone(sys.Topo, sys.TB.Origin, delta)
	}
	b.StopTimer()
	frac := float64(len(cone.Clients)) / float64(len(sys.Topo.Targets))
	b.ReportMetric(frac, "cone_frac")
	if frac > 0.10 {
		b.Fatalf("paper-scale single-link-flap cone covers %.1f%% of targets, want <= 10%%", 100*frac)
	}
}

// BenchmarkConeRepair runs one full cone-scoped repair campaign (test-scale
// topology, fault-free) and reports the probed-target fraction — the
// end-to-end cost of healing one churn event versus re-running discovery.
func BenchmarkConeRepair(b *testing.B) {
	sys := buildSystem(b, 0, nil)
	if err := sys.RunDiscovery(); err != nil {
		b.Fatal(err)
	}
	snap := sys.CurrentSnapshot()
	events := fault.PlanChurn(sys.Topo, 3, 1, []fault.ChurnKind{fault.ChurnLinkCost})
	delta, err := fault.ApplyChurn(sys.Topo, events)
	if err != nil {
		b.Fatal(err)
	}
	cone := reconcile.StructuralCone(sys.Topo, sys.TB.Origin, delta)
	cfg := reconcile.RepairConfig{Discovery: sys.Options().Discovery}
	b.ResetTimer()
	var res *reconcile.RepairResult
	for i := 0; i < b.N; i++ {
		if res, err = reconcile.Repair(sys.TB, snap, cone, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(res.ProbedTargets)/float64(res.TotalTargets), "probed_frac")
}
