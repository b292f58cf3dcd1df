package splpo_test

import (
	"fmt"
	"reflect"
	"runtime/debug"
	"sync"
	"testing"

	"anyopt"
	"anyopt/internal/core/discovery"
	"anyopt/internal/core/splpo"
	"anyopt/internal/testbed"
	"anyopt/internal/topology"
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
// the returned assignment's loads (its SiteSet is one word and allocates
// nothing). Nothing is allocated per subset.
const exhaustiveAllocs = 6

// TestExhaustiveAllocationBudget holds Exhaustive to its budget, with the
// collector off while it counts (a collection started by an earlier test's
// garbage can add an allocation to the count), whether it
// enumerates every subset, stops at serve_mixed's 2,000, or walks one size:
// the four runs evaluate from 455 to 32,767 subsets, so one allocation per
// subset fails it.
func TestExhaustiveAllocationBudget(t *testing.T) {
	in := paperInstances(t)[0]
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
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

// dnscloud holds the examples/dnscloud instance: 36 sites, three at each of
// twelve tier-1 providers, discovered with the §4.3 RTT heuristic.
var dnscloud struct {
	once sync.Once
	in   *splpo.Instance
	err  error
}

func dnscloudInstance(tb testing.TB) *splpo.Instance {
	tb.Helper()
	dnscloud.once.Do(func() {
		params := topology.TestParams()
		params.NumTier1, params.NumTransit, params.NumStub, params.Seed = 12, 60, 500, 11
		topo, err := topology.Generate(params)
		if err != nil {
			dnscloud.err = err
			return
		}
		var sites []testbed.SiteSpec
		for _, t1 := range topo.Tier1s() {
			for p := 0; p < 3 && p < len(t1.PoPs); p++ {
				sites = append(sites, testbed.SiteSpec{City: t1.PoPs[p].City, Transit: t1.Name})
			}
		}
		sys, err := anyopt.New(anyopt.Options{
			Topology:        params,
			Testbed:         testbed.Options{Sites: sites, Seed: 11},
			Discovery:       discovery.DefaultConfig(),
			UseRTTHeuristic: true,
		})
		if err == nil {
			err = sys.RunDiscovery()
		}
		if err != nil {
			dnscloud.err = err
			return
		}
		snap := sys.CurrentSnapshot()
		dnscloud.in, _ = snap.Pred.BuildInstance(snap.AnnOrder)
	})
	if dnscloud.err != nil {
		tb.Fatal(dnscloud.err)
	}
	return dnscloud.in
}

// TestSolveMatchesExhaustiveAtPaperScale holds Solve to Exhaustive on the
// instances /v1/optimize solves: seeds 1–3, every k, with and without the
// lowest site of the unconstrained optimum excluded.
func TestSolveMatchesExhaustiveAtPaperScale(t *testing.T) {
	for i, in := range paperInstances(t) {
		t.Run(fmt.Sprintf("seed=%d", i+1), func(t *testing.T) {
			t.Parallel()
			free, _, err := splpo.Exhaustive(in, splpo.Options{})
			if err != nil {
				t.Fatal(err)
			}
			excluded := splpo.SiteSetOf(in.NumSites, free.Open.Sites()[0])
			for _, forbidden := range []splpo.SiteSet{{}, excluded} {
				for k := 0; k <= in.NumSites; k++ {
					opts := splpo.Options{ExactSize: k, Forbidden: forbidden}
					got, _, proven, gotErr := splpo.Solve(in, opts, nil)
					want, _, wantErr := splpo.Exhaustive(in, opts)
					if !reflect.DeepEqual(got, want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !proven {
						t.Fatalf("%+v:\n Solve      %v mean %v, proven %v, err %v\n Exhaustive %v mean %v, err %v",
							opts, got.Open, got.MeanCost, proven, gotErr, want.Open, want.MeanCost, wantErr)
					}
				}
			}
		})
	}
}

// solveAllocs is the allocation budget of one Solve call: six for the
// search state (the struct, its per-client bytes, per-site sums, counts and
// float scratch, and its journal), Validate's scratch and the returned
// assignment's loads. Nothing is allocated per node.
const solveAllocs = 8

// TestSolveAllocationBudget holds Solve to its budget, with the collector
// off while it counts as in TestExhaustiveAllocationBudget, on the 36-site
// dnscloud instance at k = 6 and 18 and on a paper-scale instance, searches
// of a few hundred to tens of thousands of nodes, so one allocation per node
// fails it.
func TestSolveAllocationBudget(t *testing.T) {
	dnscloud, paper := dnscloudInstance(t), paperInstances(t)[0]
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		name string
		in   *splpo.Instance
		k    int
	}{
		{"dnscloud", dnscloud, 6},
		{"dnscloud", dnscloud, 18},
		{"paper", paper, 0},
		{"paper", paper, 6},
	} {
		_, _, nodes, _, _ := splpo.SolveCounted(tc.in, splpo.Options{ExactSize: tc.k}, nil)
		got := testing.AllocsPerRun(1, func() {
			if _, _, _, err := splpo.Solve(tc.in, splpo.Options{ExactSize: tc.k}, nil); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s k %d: %d nodes, %v allocations", tc.name, tc.k, nodes, got)
		if got != solveAllocs {
			t.Errorf("%s k %d: Solve over %d nodes allocates %v, budget %d", tc.name, tc.k, nodes, got, solveAllocs)
		}
	}
}

// BenchmarkSolveDNSCloud times Solve on the 36-site dnscloud instance at the
// sizes the root test pins.
func BenchmarkSolveDNSCloud(b *testing.B) {
	in := dnscloudInstance(b)
	for _, k := range []int{0, 6, 12, 18, 24, 30} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var nodes int
			for i := 0; i < b.N; i++ {
				var err error
				if _, _, nodes, _, err = splpo.SolveCounted(in, splpo.Options{ExactSize: k}, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(nodes), "nodes/op")
		})
	}
}
