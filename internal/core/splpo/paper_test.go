package splpo_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"anyopt"
	"anyopt/internal/core/splpo"
)

// paper holds the /v1/optimize instances of three paper-scale campaigns
// (seeds 1–3), built once for every test in this file.
var paper struct {
	once sync.Once
	ins  []*splpo.Instance
	err  error
}

func paperInstances(t *testing.T) []*splpo.Instance {
	t.Helper()
	paper.once.Do(func() {
		for seed := int64(1); seed <= 3; seed++ {
			o := anyopt.PaperScaleOptions()
			o.Topology.Seed, o.Testbed.Seed, o.Discovery.NoiseSeed = seed, seed, seed
			sys, err := anyopt.New(o)
			if err == nil {
				err = sys.RunDiscovery()
			}
			if err != nil {
				paper.err = fmt.Errorf("seed %d: %w", seed, err)
				return
			}
			snap := sys.CurrentSnapshot()
			in, _ := snap.Pred.BuildInstance(snap.AnnOrder)
			paper.ins = append(paper.ins, in)
		}
	})
	if paper.err != nil {
		t.Fatal(paper.err)
	}
	return paper.ins
}

// TestExhaustiveMatchesOracleAtPaperScale holds the pruned Exhaustive to the
// unpruned loop on the instances /v1/optimize solves: seeds 1–3, every k,
// unbudgeted and at serve_mixed's budget of 2,000, with and without a site
// excluded (the lowest site of the unconstrained optimum, so the exclusion
// moves the answer).
func TestExhaustiveMatchesOracleAtPaperScale(t *testing.T) {
	for i, in := range paperInstances(t) {
		t.Run(fmt.Sprintf("seed=%d", i+1), func(t *testing.T) {
			t.Parallel()
			kernel := splpo.KernelTable(in)
			free, _, err := splpo.ExhaustiveOracle(in, splpo.Options{}, kernel)
			if err != nil {
				t.Fatal(err)
			}
			excluded := splpo.SiteSetOf(in.NumSites, free.Open.Sites()[0])
			for _, forbidden := range []splpo.SiteSet{{}, excluded} {
				for k := 0; k <= in.NumSites; k++ {
					for _, budget := range []int{0, 2000} {
						opts := splpo.Options{ExactSize: k, MaxSubsets: budget, Forbidden: forbidden}
						got, gotN, _, gotErr := splpo.ExhaustiveCounted(in, opts)
						want, wantN, wantErr := splpo.ExhaustiveOracle(in, opts, kernel)
						if !reflect.DeepEqual(got, want) || gotN != wantN || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
							t.Fatalf("%+v:\n got  %v mean %v, %d evaluated, err %v\n want %v mean %v, %d evaluated, err %v",
								opts, got.Open, got.MeanCost, gotN, gotErr, want.Open, want.MeanCost, wantN, wantErr)
						}
					}
				}
			}
		})
	}
}

// TestExhaustiveBoundPrunesAtPaperScale: on serve_mixed's questions (k 5…10
// at a budget of 2,000) the lower bound leaves at most 5 % of the subsets to
// the exact kernel. A bound that stops pruning fails here, where the oracle
// tests would still pass.
func TestExhaustiveBoundPrunesAtPaperScale(t *testing.T) {
	for i, in := range paperInstances(t) {
		for k := 5; k <= 10; k++ {
			_, evaluated, exact, err := splpo.ExhaustiveCounted(in, splpo.Options{ExactSize: k, MaxSubsets: 2000})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("seed %d k %d: %d of %d subsets evaluated exactly", i+1, k, exact, evaluated)
			if exact*20 > evaluated {
				t.Errorf("seed %d k %d: %d of %d subsets evaluated exactly, want at most 5%%", i+1, k, exact, evaluated)
			}
		}
		_, evaluated, exact, err := splpo.ExhaustiveCounted(in, splpo.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("seed %d, every size, no budget: %d of %d subsets evaluated exactly", i+1, exact, evaluated)
	}
}

// exhaustiveAllocs is the allocation budget of one Exhaustive call on a
// paper-scale instance: the site-load scratch, the lower bound's tree and
// the returned assignment. Nothing is allocated per subset.
const exhaustiveAllocs = 7

// TestExhaustiveAllocationBudget holds Exhaustive to its budget whether it
// enumerates every subset, stops at serve_mixed's 2,000, or walks one size:
// the four runs evaluate from 455 to 32,767 subsets, so one allocation per
// subset fails it.
func TestExhaustiveAllocationBudget(t *testing.T) {
	in := paperInstances(t)[0]
	for _, opts := range []splpo.Options{{}, {MaxSubsets: 2000}, {ExactSize: 3}, {ExactSize: 7}} {
		got := testing.AllocsPerRun(3, func() {
			if _, _, err := splpo.Exhaustive(in, opts); err != nil {
				t.Fatal(err)
			}
		})
		if got != exhaustiveAllocs {
			t.Errorf("%+v: Exhaustive over %d clients and %d sites allocates %v, budget %d",
				opts, len(in.Clients), in.NumSites, got, exhaustiveAllocs)
		}
	}
}
