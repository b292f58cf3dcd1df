package splpo

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// --- SiteSet units ---

func TestSiteSetBasics(t *testing.T) {
	s := NewSiteSet(63)
	for _, site := range []int{0, 5, 40, 62} {
		s.Add(site)
	}
	if s.Count() != 4 {
		t.Fatalf("count %d, want 4", s.Count())
	}
	for _, site := range []int{0, 5, 40, 62} {
		if !s.Has(site) {
			t.Errorf("missing site %d", site)
		}
	}
	if s.Has(1) || s.Has(63) || s.Has(-1) {
		t.Error("phantom membership")
	}
	c := s // a SiteSet is a value: the copy is independent
	c.Add(7)
	if s.Has(7) || !c.Has(7) || s.Equal(c) {
		t.Error("copy shares storage")
	}
	if !s.Equal(SiteSetOf(63, 62, 40, 5, 0)) || s.Equal(SiteSetOf(62, 0, 5, 40)) {
		t.Error("Equal must compare the sites and the range")
	}
	if got := s.Sites(); !reflect.DeepEqual(got, []int{0, 5, 40, 62}) {
		t.Errorf("sites %v", got)
	}
	if s.String() != "{0 5 40 62}" || NewSiteSet(3).String() != "{}" {
		t.Errorf("string %q", s.String())
	}
}

func TestSiteSetMaskRoundTrip(t *testing.T) {
	mask := uint64(0b1011001)
	s := siteSetOfWord(7, mask)
	if s.word() != mask {
		t.Fatalf("mask %b, want %b", s.word(), mask)
	}
	if s.Count() != 4 {
		t.Fatalf("count %d", s.Count())
	}
	// Out-of-range bits are dropped.
	if siteSetOfWord(3, 0b11111).word() != 0b111 {
		t.Error("range clamp failed")
	}
}

// TestBitmaskSolversRejectLargeInstances: a SiteSet is one word, so every
// solver refuses an instance past MaxSites, and Solve answers at MaxSites
// even when most sites are ranked by no client and tie with every subset.
func TestBitmaskSolversRejectLargeInstances(t *testing.T) {
	spread := func(n int) *Instance {
		in := &Instance{NumSites: n}
		for c := 0; c < 4; c++ {
			in.Clients = append(in.Clients, Client{Ranking: []int{c, n - 1 - c}, RankCost: []float64{1, 2}})
		}
		return in
	}
	in := spread(70)
	if err := in.Validate(); err == nil || !strings.Contains(err.Error(), "63") {
		t.Errorf("Validate on 70 sites: err = %v, want a refusal naming the limit", err)
	}
	if _, _, err := Exhaustive(in, Options{}); err == nil {
		t.Error("Exhaustive accepted 70 sites")
	}
	if _, _, _, err := Solve(in, Options{}, nil); err == nil {
		t.Error("Solve accepted 70 sites")
	}
	if _, err := GreedyByCost(in, 4); err == nil {
		t.Error("GreedyByCost accepted 70 sites")
	}
	// Sites 0..3 are everyone's first choice at cost 1, 59..62 second at 2,
	// and the 55 others are ranked by nobody.
	in = spread(MaxSites)
	want := SiteSetOf(MaxSites, 0, 1, 2, 3)
	for _, size := range []int{0, 4} {
		a, _, proven, err := Solve(in, Options{ExactSize: size}, nil)
		if err != nil || !proven || !a.Open.Equal(want) || a.MeanCost != 1 {
			t.Errorf("Solve at %d sites, size %d: %v mean %v proven %v err %v; want {0 1 2 3} at mean 1",
				MaxSites, size, a.Open, a.MeanCost, proven, err)
		}
	}
	g, err := GreedyByCost(in, 4)
	if err != nil || !g.Open.Equal(want) || !g.Feasible || g.MeanCost != 1 {
		t.Errorf("greedy at %d sites = %v feasible %v mean %v err %v, want {0 1 2 3} at mean 1", MaxSites, g.Open, g.Feasible, g.MeanCost, err)
	}
}

// evaluateReference is the kernel written the slow way, a SiteSet lookup per
// ranked site and a second pass for the caps.
func evaluateReference(in *Instance, open SiteSet, siteLoad []float64) Stats {
	clear(siteLoad)
	st := Stats{Open: open.Count()}
	for i := range in.Clients {
		c := &in.Clients[i]
		pos := -1
		for p, s := range c.Ranking {
			if open.Has(s) {
				pos = p
				break
			}
		}
		if pos < 0 {
			st.Unserved++
			continue
		}
		w := c.weight()
		st.FiniteCost += w * c.RankCost[pos]
		st.Weight += w
		st.Served++
		siteLoad[c.Ranking[pos]] += c.Load
	}
	if in.Cap != nil {
		for _, s := range open.Sites() {
			if siteLoad[s] > in.Cap[s] {
				st.CapExcess += siteLoad[s] - in.Cap[s]
			}
		}
	}
	return st
}

// TestExhaustiveKernelMatchesEvaluateSet holds the one-word kernel, which
// EvaluateSet and every solver use, to the slow reference field for field
// and load for load, on dense, sparse and capacitated instances.
func TestExhaustiveKernelMatchesEvaluateSet(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		nSites := 1 + rng.Intn(20)
		var in *Instance
		if trial%2 == 0 {
			in = randomInstance(rng, nSites, 1+rng.Intn(40))
		} else {
			in = randomSparseInstance(rng, nSites, 1+rng.Intn(40), 1+rng.Intn(nSites), trial%4 == 1)
		}
		wordLoad, refLoad := make([]float64, nSites), make([]float64, nSites)
		for probe := 0; probe < 50; probe++ {
			open := siteSetOfWord(nSites, rng.Uint64())
			got, want := in.EvaluateSet(open, wordLoad), evaluateReference(in, open, refLoad)
			if got != want || !reflect.DeepEqual(wordLoad, refLoad) {
				t.Fatalf("trial %d open %v: kernel %+v loads %v, reference %+v loads %v", trial, open, got, wordLoad, want, refLoad)
			}
		}
	}
}

// randomSparseInstance is randomInstance with truncated sparse rankings, so
// a subset can leave clients unserved.
func randomSparseInstance(rng *rand.Rand, nSites, nClients, width int, capped bool) *Instance {
	in := &Instance{NumSites: nSites}
	totalLoad := 0.0
	for c := 0; c < nClients; c++ {
		perm := rng.Perm(nSites)[:width]
		rankCost := make([]float64, width)
		for i := range rankCost {
			rankCost[i] = 10 + rng.Float64()*190
		}
		w := 1 + rng.Float64()*4
		in.Clients = append(in.Clients, Client{
			Ranking: perm, RankCost: rankCost, Weight: w, Load: w,
		})
		totalLoad += w
	}
	if capped {
		in.Cap = make([]float64, nSites)
		for s := range in.Cap {
			in.Cap[s] = totalLoad / float64(nSites) * (1 + rng.Float64()*2)
		}
	}
	return in
}

// sameAsExhaustive runs Solve and Exhaustive on one question and fails
// unless the assignments (every field, SiteLoad included) and the errors are
// identical and the answer is proven. It returns how many subsets Solve
// priced and Exhaustive enumerated when there is an answer.
func sameAsExhaustive(t *testing.T, in *Instance, opts Options, context string) (solved, enumerated int) {
	t.Helper()
	got, solved, proven, gotErr := Solve(in, opts, nil)
	want, enumerated, _, wantErr := exhaustive(in, opts)
	if !reflect.DeepEqual(got, want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !proven {
		t.Fatalf("%s %+v:\n Solve      %+v, proven %v, err %v\n Exhaustive %+v, err %v",
			context, opts, got, proven, gotErr, want, wantErr)
	}
	if wantErr != nil {
		return 0, 0
	}
	return solved, enumerated
}

// oracleShapes are the instance shapes both exact solvers are held to:
// dense, sparse and weighted, capacitated under RequireFeasible, riddled
// with exact ties, or carrying zero and negative weights (which turn every
// bound off).
func oracleShapes(rng *rand.Rand) []struct {
	name     string
	build    func(nSites int) *Instance
	feasible bool // ask RequireFeasible of a capacitated instance
} {
	return []struct {
		name     string
		build    func(nSites int) *Instance
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
}

// TestSearchMatchesExhaustive holds Solve to Exhaustive at up to 20 sites on
// every shape: every ExactSize including 0 (any size) up to 16 sites, the
// cheap extremes at 20, with and without a forbidden site.
func TestSearchMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	shapes := oracleShapes(rng)
	solved, enumerated := 0, 0
	for trial := 0; trial < 13; trial++ {
		for _, sh := range shapes {
			nSites, sizes := 1+rng.Intn(12), []int(nil)
			switch trial {
			case 0:
				nSites = 16
			case 12:
				nSites, sizes = 20, []int{1, 2, 19, 20}
			}
			if sizes == nil {
				for size := 0; size <= nSites; size++ {
					sizes = append(sizes, size)
				}
			}
			in := sh.build(nSites)
			for _, forbidden := range []SiteSet{{}, SiteSetOf(nSites, rng.Intn(nSites))} {
				for _, size := range sizes {
					opts := Options{ExactSize: size, RequireFeasible: sh.feasible, Forbidden: forbidden}
					s, e := sameAsExhaustive(t, in, opts, fmt.Sprintf("trial %d %s (%d sites)", trial, sh.name, nSites))
					solved += s
					enumerated += e
				}
			}
		}
	}
	// The comparison means little unless the bounds cut.
	if solved*3 > enumerated {
		t.Fatalf("Solve priced %d of %d subsets: its bounds cut too little to be tested", solved, enumerated)
	}
	t.Logf("Solve priced %d of %d subsets", solved, enumerated)
}

// TestSolveMatchesExhaustivePast20 takes the comparison past the sites the
// facade enumerates, with plain Exhaustive as the oracle.
func TestSolveMatchesExhaustivePast20(t *testing.T) {
	if testing.Short() {
		t.Skip("enumerates up to 2^24 subsets per question")
	}
	rng := rand.New(rand.NewSource(21))
	shapes := oracleShapes(rng)
	for _, q := range []struct{ sites, size int }{{21, 0}, {21, 3}, {21, 10}, {22, 11}, {23, 3}, {24, 12}} {
		sh := shapes[q.sites%4] // dense, sparse-weighted, dense-capacitated, sparse-capacitated
		in := sh.build(q.sites)
		opts := Options{ExactSize: q.size, RequireFeasible: sh.feasible, Forbidden: SiteSetOf(q.sites, rng.Intn(q.sites))}
		sameAsExhaustive(t, in, opts, fmt.Sprintf("%s (%d sites)", sh.name, q.sites))
	}
}

// TestSearchDeterministic: the same question gets the same answer and the
// same number of kernel evaluations.
func TestSearchDeterministic(t *testing.T) {
	in := randomInstance(rand.New(rand.NewSource(5)), 20, 100)
	for _, size := range []int{0, 4} {
		a, an, _, err := Solve(in, Options{ExactSize: size}, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, bn, _, err := Solve(in, Options{ExactSize: size}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) || an != bn {
			t.Fatalf("size %d diverged: %v/%d vs %v/%d", size, a.Open, an, b.Open, bn)
		}
	}
}

// TestSearchStopHook: a stop that fires at once still returns a valid
// incumbent, unproven; one that never fires returns the unstopped answer.
func TestSearchStopHook(t *testing.T) {
	in := randomInstance(rand.New(rand.NewSource(13)), 24, 100)
	opts := Options{ExactSize: 5, Forbidden: SiteSetOf(24, 2)}
	want, wantN, proven, err := Solve(in, opts, nil)
	if err != nil || !proven {
		t.Fatalf("unstopped: proven %v, err %v", proven, err)
	}
	calls := 0
	got, gotN, proven, err := Solve(in, opts, func() bool { calls++; return false })
	if err != nil || !proven || !reflect.DeepEqual(got, want) || gotN != wantN || calls == 0 {
		t.Errorf("never-firing stop: %v/%d proven %v err %v after %d polls; want %v/%d proven", got.Open, gotN, proven, err, calls, want.Open, wantN)
	}
	calls = 0
	got, gotN, proven, err = Solve(in, opts, func() bool { calls++; return true })
	if err != nil || proven || calls != 1 || gotN < 1 {
		t.Fatalf("firing stop: proven %v, err %v, %d polls, %d evaluated", proven, err, calls, gotN)
	}
	if got.Open.Count() != 5 || got.Open.Has(2) || !reflect.DeepEqual(got, in.assign(got.Open)) {
		t.Errorf("stopped answer %v is not a valid 5-site subset without site 2: %+v", got.Open, got)
	}
	if got.MeanCost < want.MeanCost {
		t.Errorf("stopped answer's mean %v beats the optimum %v", got.MeanCost, want.MeanCost)
	}
}

// BenchmarkSolver15Exhaustive times Exhaustive, every size, on a random
// 15-site, 300-client instance.
func BenchmarkSolver15Exhaustive(b *testing.B) {
	in := randomInstance(rand.New(rand.NewSource(8)), 15, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Exhaustive(in, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSearchRejectsBadOptions: a size past the usable sites and an
// all-forbidden instance are errors, the same ones Exhaustive returns.
func TestSearchRejectsBadOptions(t *testing.T) {
	in := randomSparseInstance(rand.New(rand.NewSource(17)), 10, 20, 3, false)
	for _, opts := range []Options{
		{ExactSize: 11},
		{ExactSize: 10, Forbidden: SiteSetOf(10, 4)},
		{Forbidden: SiteSetOf(10, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9)},
	} {
		if _, _, _, err := Solve(in, opts, nil); err == nil {
			t.Errorf("%+v accepted", opts)
		}
		sameAsExhaustive(t, in, opts, "bad options")
	}
}
