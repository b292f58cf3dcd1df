package splpo

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// tinyInstance: 3 sites, 3 clients with distinct preferences.
func tinyInstance() *Instance {
	return &Instance{
		NumSites: 3,
		Clients: []Client{
			{Ranking: []int{0, 1, 2}, RankCost: []float64{10, 20, 30}},
			{Ranking: []int{1, 2, 0}, RankCost: []float64{10, 20, 30}},
			{Ranking: []int{2, 0, 1}, RankCost: []float64{10, 20, 30}},
		},
	}
}

func TestEvaluatePicksMostPreferredOpen(t *testing.T) {
	in := tinyInstance()
	a := in.assign(SiteSetOf(3, 0, 1))
	if !a.Feasible || a.Served != 3 {
		t.Fatalf("assignment: %+v", a)
	}
	// Client 0 → site 0 (10); client 1 → site 1 (10); client 2 → site 0
	// (20, preferred over 1).
	if a.TotalCost != 40 {
		t.Errorf("total = %v, want 40", a.TotalCost)
	}
}

func TestEvaluatePreferenceNotCost(t *testing.T) {
	// A client may prefer an expensive site — BGP doesn't optimize latency.
	in := &Instance{
		NumSites: 2,
		Clients:  []Client{{Ranking: []int{1, 0}, RankCost: []float64{100, 1}}},
	}
	a := in.assign(SiteSetOf(2, 0, 1))
	if a.TotalCost != 100 {
		t.Errorf("client should follow preference to the costly site; total = %v", a.TotalCost)
	}
}

func TestEvaluateUnservedClient(t *testing.T) {
	in := &Instance{
		NumSites: 2,
		Clients:  []Client{{Ranking: []int{0}, RankCost: []float64{1}}},
	}
	a := in.assign(SiteSetOf(2, 1)) // client accepts only site 0
	if a.Feasible {
		t.Error("unserved client should make assignment infeasible")
	}
	if a.TotalCost < Infinity {
		t.Error("unserved client should cost Infinity")
	}
}

func TestEvaluateEmptySubset(t *testing.T) {
	in := tinyInstance()
	a := in.assign(NewSiteSet(3))
	if a.Feasible || a.TotalCost < Infinity {
		t.Error("empty subset must be infeasible")
	}
}

func TestEvaluateLoadCap(t *testing.T) {
	in := tinyInstance()
	for i := range in.Clients {
		in.Clients[i].Load = 1
	}
	in.Cap = []float64{1, 3, 3}
	// Only site 0 open: all 3 clients land on it, cap 1 → infeasible.
	if a := in.assign(SiteSetOf(3, 0)); a.Feasible {
		t.Error("overloaded site not flagged")
	}
	// All open: loads 1,1,1 → feasible.
	if a := in.assign(SiteSetOf(3, 0, 1, 2)); !a.Feasible {
		t.Error("balanced assignment flagged infeasible")
	}
}

func TestEvaluateWeights(t *testing.T) {
	in := &Instance{
		NumSites: 1,
		Clients: []Client{
			{Ranking: []int{0}, RankCost: []float64{10}, Weight: 3},
			{Ranking: []int{0}, RankCost: []float64{20}},
		},
	}
	a := in.assign(SiteSetOf(1, 0))
	if a.TotalCost != 50 {
		t.Errorf("weighted total = %v, want 50", a.TotalCost)
	}
	if a.MeanCost != 12.5 {
		t.Errorf("weighted mean = %v, want 12.5", a.MeanCost)
	}
}

func TestExhaustiveFindsOptimum(t *testing.T) {
	in := tinyInstance()
	best, evaluated, err := Exhaustive(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if evaluated != 7 {
		t.Errorf("evaluated %d subsets, want 7", evaluated)
	}
	// All sites open: every client at its favorite (cost 10 each) = 30.
	if !best.Open.Equal(SiteSetOf(3, 0, 1, 2)) || best.TotalCost != 30 {
		t.Errorf("best = %+v, want all three sites open, total 30", best)
	}
}

func TestExhaustiveExactSize(t *testing.T) {
	in := tinyInstance()
	best, evaluated, err := Exhaustive(in, Options{ExactSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if evaluated != 3 {
		t.Errorf("evaluated %d, want 3 two-site subsets", evaluated)
	}
	if best.Open.Count() != 2 {
		t.Errorf("best subset %v is not size 2", best.Open)
	}
	if best.TotalCost != 40 {
		t.Errorf("best 2-site total = %v, want 40", best.TotalCost)
	}
}

func TestExhaustiveBudget(t *testing.T) {
	in := tinyInstance()
	_, evaluated, err := Exhaustive(in, Options{MaxSubsets: 3})
	if err != nil {
		t.Fatal(err)
	}
	if evaluated != 3 {
		t.Errorf("budget ignored: evaluated %d", evaluated)
	}
}

func TestExhaustiveInfeasibleInstance(t *testing.T) {
	in := &Instance{NumSites: 1, Clients: []Client{{Ranking: nil}}}
	_, _, err := Exhaustive(in, Options{RequireFeasible: true})
	if err == nil {
		t.Error("instance with unservable client solved")
	}
}

func TestValidateErrors(t *testing.T) {
	for _, tc := range []struct {
		in   *Instance
		want string
	}{
		{&Instance{NumSites: 0}, "splpo: NumSites = 0"},
		{&Instance{NumSites: 2, Cap: []float64{1}}, "splpo: Cap has 1 entries for 2 sites"},
		{&Instance{NumSites: 2, Clients: []Client{{Ranking: []int{0, 1}, RankCost: []float64{1}}}}, "splpo: client 0 has 1 rank costs for 2 ranked sites"},
		{&Instance{NumSites: 2, Clients: []Client{{Ranking: []int{5}, RankCost: []float64{1}}}}, "splpo: client 0 ranks unknown site 5"},
		{&Instance{NumSites: 2, Clients: []Client{{Ranking: []int{0, 0}, RankCost: []float64{1, 1}}}}, "splpo: client 0 ranks site 0 twice"},
		// The duplicate check shares one scratch between clients: a site two
		// clients rank is not a duplicate, one the second ranks twice is.
		{&Instance{NumSites: 3, Clients: []Client{
			{Ranking: []int{2, 0}, RankCost: []float64{1, 1}},
			{Ranking: []int{0, 2, 1}, RankCost: []float64{1, 1, 1}},
		}}, ""},
		{&Instance{NumSites: 3, Clients: []Client{
			{Ranking: []int{2, 0}, RankCost: []float64{1, 1}},
			{Ranking: []int{1, 2, 1}, RankCost: []float64{1, 1, 1}},
		}}, "splpo: client 1 ranks site 1 twice"},
	} {
		err := tc.in.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%+v: %v", tc.in, err)
		case tc.want != "" && (err == nil || err.Error() != tc.want):
			t.Errorf("%+v: error %v, want %q", tc.in, err, tc.want)
		}
	}
}

func TestGreedyByCost(t *testing.T) {
	// Site 0 has the lowest mean cost but clients prefer site 2.
	in := &Instance{
		NumSites: 3,
		Clients: []Client{
			{Ranking: []int{2, 0, 1}, RankCost: []float64{40, 5, 50}},
			{Ranking: []int{2, 0, 1}, RankCost: []float64{40, 5, 50}},
		},
	}
	g, err := GreedyByCost(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Open.Equal(SiteSetOf(3, 0)) {
		t.Errorf("greedy picked %v, want site 0 (lowest mean unicast)", g.Open)
	}
	// The optimum is site 0 too here (since only site 0 open → clients use
	// it at cost 5). Greedy's failure mode is preference blindness with
	// more sites open:
	g2, err := GreedyByCost(in, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Greedy opens {0, 2} (means 5 and 40); clients prefer 2 → cost 80.
	if g2.TotalCost != 80 {
		t.Errorf("greedy 2-site total = %v, want 80 (preference-blind)", g2.TotalCost)
	}
	best, _, _ := Exhaustive(in, Options{ExactSize: 2})
	if best.TotalCost >= g2.TotalCost {
		t.Errorf("exhaustive (%v) should beat greedy (%v)", best.TotalCost, g2.TotalCost)
	}
	if _, err := GreedyByCost(in, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestRandomAndBestRandom(t *testing.T) {
	in := tinyInstance()
	rng := rand.New(rand.NewSource(1))
	a, err := RandomSubset(in, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if a.Open.Count() != 2 {
		t.Errorf("random subset size %d", a.Open.Count())
	}
	best, err := BestRandom(in, 2, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	if best.TotalCost > 40 {
		t.Errorf("best of 20 random 2-site subsets = %v, want 40 (the 2-site optimum)", best.TotalCost)
	}
}

func randomInstance(rng *rand.Rand, nSites, nClients int) *Instance {
	in := &Instance{NumSites: nSites}
	for c := 0; c < nClients; c++ {
		cost := make([]float64, nSites)
		for s := range cost {
			cost[s] = 10 + rng.Float64()*190
		}
		ranking := rng.Perm(nSites)
		rankCost := make([]float64, nSites)
		for i, s := range ranking {
			rankCost[i] = cost[s]
		}
		in.Clients = append(in.Clients, Client{Ranking: ranking, RankCost: rankCost})
	}
	return in
}

// Property: opening more sites never increases any individual client's
// position in its own ranking (the monotonicity Lemma 1 gives at the routing
// level, restated for the optimizer's assignment rule) — and the chosen site
// for each client under subset S∪{x} is either the old site or x... the
// simple checkable form: each client's assigned rank index is nonincreasing
// as sites are added.
func TestPropertyMonotoneRankUnderGrowth(t *testing.T) {
	f := func(seed int64, addSite uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomInstance(rng, 6, 10)
		subset := uint64(rng.Intn(63) + 1)
		add := uint64(1) << (addSite % 6)
		grown := subset | add
		rankOf := func(c *Client, sub uint64) int {
			for i, s := range c.Ranking {
				if sub&(1<<uint(s)) != 0 {
					return i
				}
			}
			return 1 << 20
		}
		for i := range in.Clients {
			c := &in.Clients[i]
			if rankOf(c, grown) > rankOf(c, subset) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDominatingSetReduction exercises the Appendix B.1 hardness gadget.
func TestDominatingSetReduction(t *testing.T) {
	// A star K1,4: center 0 dominates everything → dominating set size 1.
	star := Graph{N: 5, Edges: [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}}}
	in := ReduceDominatingSet(star)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if !HasZeroCostSolution(in, 2) { // K+1 = 2 sites: {center, s*}
		t.Error("star graph with dominating set {0} has no zero-cost 2-site solution")
	}

	// A path 0-1-2-3-4: minimum dominating set is {1, 3} (size 2), not 1.
	path := Graph{N: 5, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}}
	in2 := ReduceDominatingSet(path)
	if HasZeroCostSolution(in2, 2) {
		t.Error("path graph cannot be dominated by one vertex")
	}
	if !HasZeroCostSolution(in2, 3) {
		t.Error("path graph dominated by {1,3} should give zero-cost 3-site solution")
	}

	// Edgeless graph on 3 vertices: dominating set must be all vertices.
	empty := Graph{N: 3}
	in3 := ReduceDominatingSet(empty)
	if HasZeroCostSolution(in3, 3) {
		t.Error("edgeless K3 dominated by 2 vertices?")
	}
	if !HasZeroCostSolution(in3, 4) {
		t.Error("all vertices + s* must be zero cost")
	}
}

func BenchmarkExhaustive15Sites(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := randomInstance(rng, 15, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Exhaustive(in, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestExhaustiveForbidden(t *testing.T) {
	in := tinyInstance()
	// Forbid site 0: the optimum must avoid it.
	best, evaluated, err := Exhaustive(in, Options{Forbidden: SiteSetOf(3, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if best.Open.Has(0) {
		t.Fatalf("optimum %v uses a forbidden site", best.Open)
	}
	if evaluated != 3 { // subsets over sites {1,2}: 010, 100, 110
		t.Errorf("evaluated %d subsets, want 3", evaluated)
	}
	// Everything forbidden is an error.
	if _, _, err := Exhaustive(in, Options{Forbidden: SiteSetOf(3, 0, 1, 2)}); err == nil {
		t.Error("all-forbidden exhaustive succeeded")
	}
}
