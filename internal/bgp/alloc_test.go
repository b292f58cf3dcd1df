// The invariant checker allocates per decision by design, so the budget
// holds for the default build only.

//go:build !invariants

package bgp_test

import (
	"testing"

	"anyopt/internal/bgp"
	"anyopt/internal/testbed"
	"anyopt/internal/topology"
)

// warmExperimentAllocs is the allocation budget of one experiment on a warm
// simulator session at test scale: Reset, a spaced three-site AnnounceSites,
// and convergence. Reset rewinds every arena, the RIBs keep their slices, and
// the scheduled announcements are pooled events like every update, so
// nothing is left to allocate.
const warmExperimentAllocs = 0

// TestWarmExperimentAllocationBudget holds a reused session to its budget:
// per-AS or per-update allocation anywhere in the decision process, the
// Adj-RIB-In or the event path would multiply with the ~6,000 updates an
// experiment delivers and blow through it.
func TestWarmExperimentAllocationBudget(t *testing.T) {
	topo, err := topology.Generate(topology.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	tb, err := testbed.New(topo, testbed.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := bgp.DefaultConfig()
	sim := bgp.New(topo, cfg)
	dep := tb.NewDeployment(sim, 0)
	experiment := func() {
		sim.Reset(cfg)
		dep.AnnounceSites(1, 4, 6)
	}
	experiment() // size the arenas, the RIB layout and the event pool
	if got := testing.AllocsPerRun(20, experiment); got != warmExperimentAllocs {
		t.Fatalf("warm experiment allocates %v objects, budget %d", got, warmExperimentAllocs)
	}
}
