// A repair runs the simulator, whose invariant checker allocates per
// decision by design, so the budget holds for the default build only.

//go:build !invariants

package reconcile_test

import (
	"runtime/debug"
	"testing"

	"anyopt/internal/core/prefs"
	"anyopt/internal/reconcile"
)

// Allocation budgets of one fault-free cone repair at test scale on one
// worker: 58 experiments, each a full BGP schedule whose probing the cone
// filters to its clients. The count depends on the worker count, hence the
// single worker.
const (
	oneClientRepairAllocs  = 1610
	allTargetsRepairAllocs = 1728
)

// TestRepairAllocationBudget holds one Repair to its budget for a cone of one
// client and for a cone of all 340 targets, so that one more allocation per
// repair, per experiment or per probed target fails it. The collector is off
// while counting: a collection empties the runtime's pools, and refilling
// them would count against the repair.
func TestRepairAllocationBudget(t *testing.T) {
	sys := buildSystem(t, 1, nil)
	if err := sys.RunDiscovery(); err != nil {
		t.Fatal(err)
	}
	snap := sys.CurrentSnapshot()
	targets := sys.Topo.Targets
	cfg := reconcile.RepairConfig{Discovery: sys.Options().Discovery}
	cfg.Discovery.Workers = 1
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct{ clients, budget int }{
		{1, oneClientRepairAllocs},
		{len(targets), allTargetsRepairAllocs},
	} {
		cone := &reconcile.Cone{Clients: make(map[prefs.Client]bool, tc.clients)}
		for _, tg := range targets[:tc.clients] {
			cone.Clients[prefs.Client(tg.AS)] = true
		}
		got := testing.AllocsPerRun(3, func() {
			if _, err := reconcile.Repair(sys.TB, snap, cone, cfg); err != nil {
				t.Fatal(err)
			}
		})
		if want := tc.budget + raceRepairAllocs; got != float64(want) {
			t.Errorf("repair of a %d-client cone allocates %v, budget %d", tc.clients, got, want)
		}
	}
}
