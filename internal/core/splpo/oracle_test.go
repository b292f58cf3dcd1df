package splpo

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
)

// exhaustiveOracle is Exhaustive before it had a lower bound: the same
// enumeration, with every subset priced by the exact kernel. kernel is
// evaluateWord (kernelOf) or a table of its results (kernelTable).
func exhaustiveOracle(in *Instance, opts Options, kernel func(open uint64) Stats) (Assignment, int, error) {
	if err := in.Validate(); err != nil {
		return Assignment{}, 0, err
	}
	forbidden := opts.Forbidden.word()
	bestMean, bestOpen := Infinity, uint64(0)
	evaluated := 0
	limit := uint64(1) << uint(in.NumSites)
	for open := uint64(1); open < limit; open++ {
		if open&forbidden != 0 {
			continue
		}
		if opts.ExactSize > 0 && bits.OnesCount64(open) != opts.ExactSize {
			continue
		}
		if opts.MaxSubsets > 0 && evaluated >= opts.MaxSubsets {
			break
		}
		evaluated++
		st := kernel(open)
		if opts.RequireFeasible && !st.Feasible() {
			continue
		}
		if mean := st.MeanCost(); mean < bestMean {
			bestMean, bestOpen = mean, open
		}
	}
	if bestOpen == 0 {
		return Assignment{TotalCost: Infinity, MeanCost: Infinity}, evaluated, fmt.Errorf("splpo: no acceptable subset found")
	}
	return in.assign(siteSetOfWord(in.NumSites, bestOpen)), evaluated, nil
}

// kernelOf is evaluateWord over in, as exhaustiveOracle's kernel.
func kernelOf(in *Instance) func(open uint64) Stats {
	siteLoad := make([]float64, in.NumSites)
	return func(open uint64) Stats { return in.evaluateWord(open, siteLoad) }
}

// kernelTable runs evaluateWord once on every subset of in's sites, for an
// oracle that enumerates the same space many times.
func kernelTable(in *Instance) func(open uint64) Stats {
	table := make([]Stats, 1<<uint(in.NumSites))
	siteLoad := make([]float64, in.NumSites)
	for open := range table {
		table[open] = in.evaluateWord(uint64(open), siteLoad)
	}
	return func(open uint64) Stats { return table[open] }
}

// sameAsOracle runs Exhaustive and the oracle on one question and fails
// unless the assignment (every field, SiteLoad included), the evaluated
// count and the error are identical. It returns the evaluated and exact
// counts of the pruned run.
func sameAsOracle(t *testing.T, in *Instance, opts Options, kernel func(uint64) Stats, context string) (evaluated, exact int) {
	t.Helper()
	got, gotN, exact, gotErr := exhaustive(in, opts)
	want, wantN, wantErr := exhaustiveOracle(in, opts, kernel)
	if !reflect.DeepEqual(got, want) || gotN != wantN || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s %+v:\n got  %+v, %d evaluated, err %v\n want %+v, %d evaluated, err %v",
			context, opts, got, gotN, gotErr, want, wantN, wantErr)
	}
	return gotN, exact
}

// tiedInstance draws small integer costs and weights, so many subsets tie
// exactly and the strict tie-break decides the answer. signed also draws
// negative and zero weights and negative costs, which turn the bound off.
func tiedInstance(rng *rand.Rand, nSites, nClients int, signed bool) *Instance {
	in := &Instance{NumSites: nSites}
	for c := 0; c < nClients; c++ {
		ranking := rng.Perm(nSites)[:1+rng.Intn(nSites)]
		rankCost := make([]float64, len(ranking))
		for i := range rankCost {
			rankCost[i] = float64(1 + rng.Intn(3))
			if signed && rng.Intn(8) == 0 {
				rankCost[i] = -rankCost[i]
			}
		}
		w := float64(rng.Intn(3)) // 0 weighs 1
		if signed && rng.Intn(4) == 0 {
			w = -w - 1
		}
		in.Clients = append(in.Clients, Client{Ranking: ranking, RankCost: rankCost, Weight: w, Load: 1})
	}
	return in
}

// TestExhaustiveMatchesOracle holds the pruned Exhaustive to the unpruned
// loop on every question the options can ask: each ExactSize, budgets that
// truncate the enumeration anywhere, a forbidden site, and instances that
// are dense, sparse, weighted, capacitated under RequireFeasible, riddled
// with exact ties, or carry zero and negative weights.
func TestExhaustiveMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	shapes := []struct {
		name  string
		build func(nSites int) *Instance
		// feasible asks RequireFeasible of a capacitated instance.
		feasible bool
	}{
		{"dense", func(n int) *Instance { return randomInstance(rng, n, 20+rng.Intn(30)) }, false},
		{"sparse-weighted", func(n int) *Instance {
			return randomSparseInstance(rng, n, 20+rng.Intn(30), 1+rng.Intn(n), false)
		}, false},
		{"dense-capacitated", func(n int) *Instance {
			in := randomInstance(rng, n, 20+rng.Intn(30))
			for i := range in.Clients {
				in.Clients[i].Load = 1 + rng.Float64()
			}
			in.Cap = make([]float64, n)
			for s := range in.Cap {
				in.Cap[s] = float64(len(in.Clients)) * (0.2 + rng.Float64())
			}
			return in
		}, true},
		{"sparse-capacitated", func(n int) *Instance {
			return randomSparseInstance(rng, n, 20+rng.Intn(30), 1+rng.Intn(n), true)
		}, true},
		{"tied", func(n int) *Instance { return tiedInstance(rng, n, 20+rng.Intn(30), false) }, false},
		{"signed", func(n int) *Instance { return tiedInstance(rng, n, 20+rng.Intn(30), true) }, false},
	}
	evaluated, exact := 0, 0
	for trial := 0; trial < 20; trial++ {
		for _, sh := range shapes {
			nSites := 1 + rng.Intn(11)
			if trial == 0 {
				nSites = 11 // deeper than the bound's tree, so tails are used
			}
			in := sh.build(nSites)
			kernel := kernelOf(in)
			for _, forbidden := range []SiteSet{{}, SiteSetOf(nSites, rng.Intn(nSites))} {
				for size := 0; size <= nSites; size++ {
					for _, budget := range []int{0, 1, 7, 50, 2000} {
						opts := Options{ExactSize: size, MaxSubsets: budget, RequireFeasible: sh.feasible, Forbidden: forbidden}
						n, e := sameAsOracle(t, in, opts, kernel, fmt.Sprintf("trial %d %s (%d sites)", trial, sh.name, nSites))
						evaluated += n
						exact += e
					}
				}
			}
		}
	}
	// The oracle comparison means nothing if the bound never fired.
	if pruned := evaluated - exact; pruned*3 < evaluated {
		t.Fatalf("the lower bound pruned too little to be tested: %d of %d subsets evaluated exactly", exact, evaluated)
	}
	t.Logf("%d of %d subsets evaluated exactly", exact, evaluated)
}

// TestLowerBoundOff: with a negative or non-finite weight or cost, or a
// magnitude the rounding argument does not cover, the bound is not built
// and every subset is evaluated exactly.
func TestLowerBoundOff(t *testing.T) {
	for _, tc := range []struct {
		name   string
		weight float64
		cost   float64
	}{
		{"negative weight", -1, 5},
		{"negative cost", 1, -5},
		{"infinite cost", 1, math.Inf(1)},
		{"NaN weight", math.NaN(), 5},
		{"tiny cost", 1, 0x1p-300},
		{"huge weight", 0x1p300, 5},
	} {
		in := randomInstance(rand.New(rand.NewSource(3)), 8, 30)
		in.Clients[7].Weight = tc.weight
		in.Clients[7].RankCost[2] = tc.cost
		if newLowerBound(in) != nil {
			t.Errorf("%s: bound built", tc.name)
		}
		if _, n, e, _ := exhaustive(in, Options{}); n != e {
			t.Errorf("%s: %d of %d subsets evaluated exactly, want all", tc.name, e, n)
		}
	}
	if newLowerBound(&Instance{NumSites: 3}) != nil {
		t.Error("bound built over no clients")
	}
}
