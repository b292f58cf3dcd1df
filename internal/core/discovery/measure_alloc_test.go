package discovery

import (
	"fmt"
	"runtime/debug"
	"testing"

	"anyopt/internal/fault"
	"anyopt/internal/testbed"
	"anyopt/internal/topology"
)

// Allocation budgets of one fault-free Exp.measure call: exactly the
// columns it returns. The prober's packets, the fabric's target resolution
// and the noise and fault streams all live in per-session scratch, so
// nothing is allocated per target — nor per target a quorum attempt skips.
const (
	catchmentMeasureAllocs = 3 // Site, Link and RTT
	singletonMeasureAllocs = 1 // RTT through one site's tunnel
)

// measureAllocs reports what one measure call on a converged three-site
// deployment allocates, catchment with link and RTT or a via-site RTT, and
// how many fault-trace lines each call appends. With skipHalf the attempt
// is handed a skip vector that locks every other target. The collector is
// off while counting: a collection empties fmt's printer pool, and refilling
// it would count against the call.
func measureAllocs(t *testing.T, tb *testbed.Testbed, faults *fault.Config, via, skipHalf bool) (allocs float64, linesPerCall int) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Faults = faults
	e := &Exp{d: New(tb, cfg), nonce: 3, trace: &fault.Trace{}}
	if skipHalf {
		e.skip = make([]bool, len(tb.Topo.Targets))
		for r := 0; r < len(e.skip); r += 2 {
			e.skip[r] = true
		}
	}
	if faults.Enabled() {
		e.inj = faults.Injector(e.nonce, 0, e.trace)
	}
	sim := e.deploy([]int{1, 4, 6}, nil)
	p := e.prober(sim)
	var site *testbed.Site
	if via {
		site = tb.Site(4)
	}
	measure := func() { e.measure(p, site, !via, true, 0) }
	measure()
	before := len(e.trace.Entries())
	measure()
	linesPerCall = len(e.trace.Entries()) - before
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(10, measure), linesPerCall
}

// TestMeasureAllocationBudget holds the campaign's one measurement loop to
// its columns at test scale (340 targets) and paper scale (2,780): the same
// count at both, so one allocation per target anywhere in the probe path
// fails it. The same holds for a quorum attempt whose skip vector locks half
// the targets, so a skipped target may cost nothing either. Under the paper
// fault scenario each call may cost no more than faultLineAllocs per
// fault-trace line it appends on top, and nothing else.
func TestMeasureAllocationBudget(t *testing.T) {
	paperFaults, err := fault.Scenario("paper", 1)
	if err != nil {
		t.Fatal(err)
	}
	scales := []struct {
		name   string
		params topology.Params
	}{{"test", topology.TestParams()}, {"paper", topology.DefaultParams()}}
	for _, sc := range scales {
		topo, err := topology.Generate(sc.params)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := testbed.New(topo, testbed.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, via := range []bool{false, true} {
			for _, skip := range []bool{false, true} {
				budget := catchmentMeasureAllocs
				if via {
					budget = singletonMeasureAllocs
				}
				name := fmt.Sprintf("%s scale, via site %v, half skipped %v", sc.name, via, skip)
				if got, _ := measureAllocs(t, tb, nil, via, skip); got != float64(budget) {
					t.Errorf("%s: measure allocates %v over %d targets, budget %d",
						name, got, len(topo.Targets), budget)
				}
				got, lines := measureAllocs(t, tb, paperFaults, via, skip)
				if lines == 0 {
					t.Errorf("%s: the paper fault scenario appended no trace line", name)
				}
				if got > float64(budget+faultLineAllocs*lines) {
					t.Errorf("%s, paper faults: measure allocates %v over %d targets, budget %d + %d × %d trace lines",
						name, got, len(topo.Targets), budget, faultLineAllocs, lines)
				}
				t.Logf("%s, paper faults: %v allocations, %d trace lines", name, got, lines)
			}
		}
	}
}
