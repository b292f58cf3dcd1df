package splpo

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"anyopt/internal/exec"
)

// --- SiteSet units ---

func TestSiteSetBasics(t *testing.T) {
	s := NewSiteSet(130)
	for _, site := range []int{0, 63, 64, 100, 129} {
		s.Add(site)
	}
	if s.Count() != 5 {
		t.Fatalf("count %d, want 5", s.Count())
	}
	for _, site := range []int{0, 63, 64, 100, 129} {
		if !s.Has(site) {
			t.Errorf("missing site %d", site)
		}
	}
	if s.Has(1) || s.Has(130) || s.Has(-1) {
		t.Error("phantom membership")
	}
	s.Remove(64)
	if s.Has(64) || s.Count() != 4 {
		t.Error("remove failed")
	}
	c := s.Clone()
	c.Add(5)
	if s.Has(5) {
		t.Error("clone shares storage")
	}
	if got := s.Sites(); len(got) != 4 || got[0] != 0 || got[3] != 129 {
		t.Errorf("sites %v", got)
	}
	if s.String() != "{0 63 100 129}" {
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
	// Out-of-capacity bits are dropped.
	if siteSetOfWord(3, 0b11111).word() != 0b111 {
		t.Error("capacity clamp failed")
	}
}

func TestSiteSetLess(t *testing.T) {
	a := SiteSetOf(130, 0, 100)
	b := SiteSetOf(130, 1, 100)
	if !a.Less(b) || b.Less(a) {
		t.Error("site 0 should order before site 1")
	}
	c := SiteSetOf(130, 0, 100)
	if a.Less(c) || c.Less(a) {
		t.Error("equal sets must not be Less")
	}
	// Difference in a higher word.
	d := SiteSetOf(130, 0, 100, 128)
	if !d.Less(a) {
		// d opens 128 where a is closed: d has the lower differing bit.
		t.Error("extra high site should order first (it holds the differing bit)")
	}
}

// --- past one machine word ---

// TestBitmaskSolversRejectLargeInstances: enumeration is the only technique
// with a site limit. Exhaustive refuses 70 sites and names the solver to use
// instead; the baselines evaluate one SiteSet and work at any count.
func TestBitmaskSolversRejectLargeInstances(t *testing.T) {
	in := &Instance{NumSites: 70}
	for c := 0; c < 4; c++ {
		in.Clients = append(in.Clients, Client{
			Ranking:  []int{c, 69 - c},
			RankCost: []float64{1, 2},
		})
	}
	if err := in.Validate(); err != nil {
		t.Fatalf("70-site instance must validate: %v", err)
	}
	if _, _, err := Exhaustive(in, Options{}); err == nil || !strings.Contains(err.Error(), "Search") {
		t.Errorf("Exhaustive on 70 sites: err = %v, want a refusal naming Search", err)
	}
	// Sites 0..3 are everyone's first choice at cost 1, 66..69 second at 2;
	// the other 62 have no clients (mean Infinity) and sort last.
	g, err := GreedyByCost(in, 4)
	if err != nil {
		t.Fatalf("GreedyByCost at 70 sites: %v", err)
	}
	if !g.Open.Equal(SiteSetOf(70, 0, 1, 2, 3)) || !g.Feasible || g.MeanCost != 1 {
		t.Errorf("greedy at 70 sites = %v feasible %v mean %v, want {0 1 2 3} at mean 1", g.Open, g.Feasible, g.MeanCost)
	}
	// A random 69-site subset misses at most one site, so every client keeps
	// a ranked site open — including the ones past bit 63.
	r, err := BestRandom(in, 69, 5, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("BestRandom at 70 sites: %v", err)
	}
	if r.Open.Count() != 69 || !r.Feasible || r.MeanCost > 2 {
		t.Errorf("best random at 70 sites: %d open, feasible %v, mean %v", r.Open.Count(), r.Feasible, r.MeanCost)
	}
	if _, err := Search(in, SearchOptions{MaxWork: 10_000}); err != nil {
		t.Errorf("anytime Search must accept a 70-site instance: %v", err)
	}
}

// TestExhaustiveKernelMatchesEvaluateSet holds Exhaustive's private one-word
// kernel to the SiteSet evaluation, field for field and load for load, on
// dense, sparse and capacitated instances.
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
		wordLoad, setLoad := make([]float64, nSites), make([]float64, nSites)
		for probe := 0; probe < 50; probe++ {
			w := rng.Uint64() & (1<<uint(nSites) - 1)
			open := siteSetOfWord(nSites, w)
			got, want := in.evaluateWord(w, wordLoad), in.EvaluateSet(open, setLoad)
			if got != want {
				t.Fatalf("trial %d open %v: kernel %+v, EvaluateSet %+v", trial, open, got, want)
			}
			for s := range wordLoad {
				if wordLoad[s] != setLoad[s] {
					t.Fatalf("trial %d open %v: site %d load %v vs %v", trial, open, s, wordLoad[s], setLoad[s])
				}
			}
		}
	}
}

// --- incremental evaluator differentials ---

// randomSparseInstance is randomInstance with truncated sparse rankings —
// the internet-scale shape (unserved clients possible).
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

func statsClose(t *testing.T, got, want Stats, context string) {
	t.Helper()
	if got.Served != want.Served || got.Unserved != want.Unserved || got.Open != want.Open {
		t.Fatalf("%s: counts diverged: got %+v want %+v", context, got, want)
	}
	tol := 1e-6
	if math.Abs(got.FiniteCost-want.FiniteCost) > tol*(1+math.Abs(want.FiniteCost)) {
		t.Fatalf("%s: finite cost %v vs %v", context, got.FiniteCost, want.FiniteCost)
	}
	if math.Abs(got.Weight-want.Weight) > tol*(1+math.Abs(want.Weight)) {
		t.Fatalf("%s: weight %v vs %v", context, got.Weight, want.Weight)
	}
	if math.Abs(got.CapExcess-want.CapExcess) > tol*(1+math.Abs(want.CapExcess)) {
		t.Fatalf("%s: cap excess %v vs %v", context, got.CapExcess, want.CapExcess)
	}
}

// TestDeltaEvalDifferential drives random open/close sequences — including
// marked speculative bursts that roll back — and checks the running
// aggregates against a from-scratch EvaluateSet after every step.
func TestDeltaEvalDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		capped := trial%2 == 1
		nSites := 8 + rng.Intn(60)
		width := 3 + rng.Intn(nSites/2)
		in := randomSparseInstance(rng, nSites, 30+rng.Intn(50), width, capped)
		if err := in.Validate(); err != nil {
			t.Fatal(err)
		}
		init := NewSiteSet(nSites)
		for s := 0; s < nSites; s++ {
			if rng.Intn(2) == 0 {
				init.Add(s)
			}
		}
		d := NewDeltaEval(in, init)
		check := func(context string) {
			t.Helper()
			statsClose(t, d.Stats(), in.EvaluateSet(d.OpenSet(), nil), context)
		}
		check("initial")
		for step := 0; step < 60; step++ {
			switch rng.Intn(4) {
			case 0:
				d.Open(rng.Intn(nSites))
			case 1:
				d.Close(rng.Intn(nSites))
			case 2:
				// Speculative burst, rolled back.
				before := d.Stats()
				mark := d.Mark()
				for i := 0; i < 1+rng.Intn(4); i++ {
					if rng.Intn(2) == 0 {
						d.Open(rng.Intn(nSites))
					} else {
						d.Close(rng.Intn(nSites))
					}
				}
				d.RollbackTo(mark)
				statsClose(t, d.Stats(), before, "rollback restore")
			case 3:
				d.Commit()
			}
			check("after step")
		}
		// Reset resynchronizes exactly.
		d.Reset(d.OpenSet().Clone())
		check("after reset")
	}
}

// TestDeltaEvalPatchDifferential checks that patching churned clients into
// a live evaluator is indistinguishable from rebuilding on the new instance.
func TestDeltaEvalPatchDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		nSites := 10 + rng.Intn(40)
		width := 3 + rng.Intn(5)
		in := randomSparseInstance(rng, nSites, 40, width, trial%2 == 0)
		init := NewSiteSet(nSites)
		for s := 0; s < nSites; s++ {
			if rng.Intn(3) != 0 {
				init.Add(s)
			}
		}
		d := NewDeltaEval(in, init)
		// Drift the evaluator off its initial state first.
		for i := 0; i < 10; i++ {
			d.Open(rng.Intn(nSites))
			d.Close(rng.Intn(nSites))
		}

		// Churn a third of the clients.
		next := &Instance{NumSites: nSites, Cap: in.Cap}
		next.Clients = append([]Client(nil), in.Clients...)
		var changed []int
		for c := range next.Clients {
			if rng.Intn(3) != 0 {
				continue
			}
			perm := rng.Perm(nSites)[:width]
			rankCost := make([]float64, width)
			for i := range rankCost {
				rankCost[i] = 10 + rng.Float64()*190
			}
			next.Clients[c] = Client{
				Ranking: perm, RankCost: rankCost,
				Weight: next.Clients[c].Weight, Load: next.Clients[c].Load,
			}
			changed = append(changed, c)
		}
		open := d.OpenSet().Clone()
		if !d.Patch(next, changed) {
			t.Fatal("compatible patch rejected")
		}
		fresh := NewDeltaEval(next, open)
		statsClose(t, d.Stats(), fresh.Stats(), "patched vs rebuilt")
		for c := range next.Clients {
			if d.AssignedPos(c) != fresh.AssignedPos(c) {
				t.Fatalf("client %d assignment diverged: %d vs %d", c, d.AssignedPos(c), fresh.AssignedPos(c))
			}
		}
		// The patched evaluator keeps working correctly.
		d.Open(rng.Intn(nSites))
		d.Close(rng.Intn(nSites))
		statsClose(t, d.Stats(), next.EvaluateSet(d.OpenSet(), nil), "post-patch moves")
	}
}

func TestDeltaEvalPatchRejectsShapeChange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := randomSparseInstance(rng, 10, 20, 3, false)
	d := NewDeltaEval(in, SiteSetOf(10, 0, 1))
	if d.Patch(&Instance{NumSites: 11, Clients: in.Clients}, nil) {
		t.Error("site-count change accepted")
	}
	short := &Instance{NumSites: 10, Clients: in.Clients[:19]}
	if d.Patch(short, nil) {
		t.Error("client-count change accepted")
	}
	if d.Patch(&Instance{NumSites: 10, Clients: in.Clients}, []int{99}) {
		t.Error("out-of-range changed client accepted")
	}
}

// --- anytime search vs Exhaustive ---

// TestSearchMatchesExhaustive pins the anytime solver to the proven optimum
// on paper-scale instances, across the constraint surface: free size,
// ExactSize, Forbidden, and RequireFeasible with caps.
func TestSearchMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	pool := exec.New(4)
	defer pool.Close()
	for trial := 0; trial < 12; trial++ {
		nSites := 6 + rng.Intn(10) // 6..15
		in := randomInstance(rng, nSites, 20+rng.Intn(30))
		mode := trial % 4
		opts := Options{}
		sopts := SearchOptions{Seed: int64(trial + 1)}
		switch mode {
		case 1:
			opts.ExactSize = 1 + rng.Intn(nSites-2)
			sopts.ExactSize = opts.ExactSize
		case 2:
			forbidden := rng.Intn(nSites)
			opts.Forbidden = SiteSetOf(nSites, forbidden)
			sopts.Forbidden = opts.Forbidden
		case 3:
			// Capacitate: per-site cap at half the client count, feasible
			// with enough sites open.
			in.Cap = make([]float64, nSites)
			for s := range in.Cap {
				in.Cap[s] = float64(len(in.Clients)) / 2
			}
			opts.RequireFeasible = true
			sopts.RequireFeasible = true
		}
		want, _, err := Exhaustive(in, opts)
		if err != nil {
			t.Fatalf("trial %d: exhaustive: %v", trial, err)
		}
		got, err := SearchParallel(in, sopts, 4, pool)
		if err != nil {
			t.Fatalf("trial %d (mode %d): search: %v", trial, mode, err)
		}
		if math.Abs(got.MeanCost-want.MeanCost) > 1e-9*(1+want.MeanCost) {
			t.Errorf("trial %d (mode %d): search mean %v, exhaustive optimum %v (open %v vs %v)",
				trial, mode, got.MeanCost, want.MeanCost, got.Open, want.Open)
		}
	}
}

func TestSearchDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := randomSparseInstance(rng, 80, 200, 8, false)
	a, err := Search(in, SearchOptions{Seed: 3, MaxWork: 300_000})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Search(in, SearchOptions{Seed: 3, MaxWork: 300_000})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Open.Equal(b.Open) || a.Evals != b.Evals || a.Moves != b.Moves {
		t.Fatalf("same seed diverged: %v/%d/%d vs %v/%d/%d",
			a.Open, a.Evals, a.Moves, b.Open, b.Evals, b.Moves)
	}
}

// TestSearchParallelDeterministicAcrossWorkers: the multi-start merge must
// be independent of pool width.
func TestSearchParallelDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	in := randomSparseInstance(rng, 100, 300, 8, false)
	opts := SearchOptions{Seed: 2, MaxWork: 400_000}
	pool1 := exec.New(1)
	defer pool1.Close()
	pool8 := exec.New(8)
	defer pool8.Close()
	a, err := SearchParallel(in, opts, 6, pool1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SearchParallel(in, opts, 6, pool8)
	if err != nil {
		t.Fatal(err)
	}
	c, err := SearchParallel(in, opts, 6, nil) // serial fallback
	if err != nil {
		t.Fatal(err)
	}
	if !a.Open.Equal(b.Open) || !a.Open.Equal(c.Open) {
		t.Fatalf("merge depends on worker count: %v / %v / %v", a.Open, b.Open, c.Open)
	}
	if a.MeanCost != b.MeanCost || a.MeanCost != c.MeanCost {
		t.Fatalf("mean depends on worker count")
	}
}

func TestSearchStopHook(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	in := randomSparseInstance(rng, 80, 200, 8, false)
	calls := 0
	res, err := Search(in, SearchOptions{
		Seed: 1,
		Stop: func() bool { calls++; return calls > 3 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls < 4 {
		t.Fatalf("stop hook polled %d times", calls)
	}
	if res.Open.Empty() {
		t.Fatal("stopped run returned no configuration")
	}
}

func TestSearchRejectsBadOptions(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	in := randomSparseInstance(rng, 10, 20, 3, false)
	if _, err := Search(in, SearchOptions{ExactSize: 11}); err == nil {
		t.Error("ExactSize > usable sites accepted")
	}
	all := NewSiteSet(10)
	for s := 0; s < 10; s++ {
		all.Add(s)
	}
	if _, err := Search(in, SearchOptions{Forbidden: all}); err == nil {
		t.Error("all-forbidden accepted")
	}
}

// --- warm restart ---

func TestWarmReoptimize(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	nSites := 12
	in := randomInstance(rng, nSites, 40)
	w, err := NewWarm(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	sopts := SearchOptions{Seed: 1}
	first, err := w.Solve(sopts)
	if err != nil {
		t.Fatal(err)
	}
	wantFirst, _, err := Exhaustive(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(first.MeanCost-wantFirst.MeanCost) > 1e-9*(1+wantFirst.MeanCost) {
		t.Fatalf("cold solve mean %v, optimum %v", first.MeanCost, wantFirst.MeanCost)
	}

	// Churn a handful of clients and re-optimize warm.
	next := &Instance{NumSites: nSites}
	next.Clients = append([]Client(nil), in.Clients...)
	changed := []int{3, 9, 27, 3} // duplicate on purpose: Warm dedups
	for _, c := range []int{3, 9, 27} {
		cost := make([]float64, nSites)
		for s := range cost {
			cost[s] = 10 + rng.Float64()*190
		}
		ranking := rng.Perm(nSites)
		rankCost := make([]float64, nSites)
		for i, s := range ranking {
			rankCost[i] = cost[s]
		}
		next.Clients[c] = Client{Ranking: ranking, RankCost: rankCost}
	}
	res, err := w.Reoptimize(next, 2, changed, sopts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Patched != 3 {
		t.Errorf("patched %d clients, want 3", res.Patched)
	}
	want, _, err := Exhaustive(next, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MeanCost-want.MeanCost) > 1e-9*(1+want.MeanCost) {
		t.Errorf("warm mean %v, new optimum %v", res.MeanCost, want.MeanCost)
	}
	if w.Gen() != 2 {
		t.Errorf("gen %d, want 2", w.Gen())
	}
	// Exact agreement of the reported stats with a full evaluation.
	statsClose(t, res.Stats, next.EvaluateSet(res.Open, nil), "warm result stats")
}

// TestWarmCheaperThanCold: after small churn, the warm path should reach
// its answer with less search work than a cold run at the same options —
// the whole point of the inverted-index patch + warm initial set.
func TestWarmCheaperThanCold(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	in := randomSparseInstance(rng, 120, 400, 8, false)
	w, err := NewWarm(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := SearchOptions{Seed: 1, MaxWork: 2_000_000}
	if _, err := w.Solve(opts); err != nil {
		t.Fatal(err)
	}

	next := &Instance{NumSites: in.NumSites}
	next.Clients = append([]Client(nil), in.Clients...)
	var changed []int
	for c := 0; c < len(next.Clients); c += 40 { // 2.5% churn
		perm := rng.Perm(in.NumSites)[:8]
		rankCost := make([]float64, 8)
		for i := range rankCost {
			rankCost[i] = 10 + rng.Float64()*190
		}
		next.Clients[c] = Client{Ranking: perm, RankCost: rankCost,
			Weight: next.Clients[c].Weight, Load: next.Clients[c].Load}
		changed = append(changed, c)
	}

	// The warm run gets 15% of the cold budget: starting from the previous
	// optimum with a patched index, that must be enough to match a
	// full-budget cold solve (and clearly beat a cold solve at the same
	// small budget, which is nowhere near converged on 120 sites).
	smallOpts := opts
	smallOpts.MaxWork = opts.MaxWork * 15 / 100
	warmRes, err := w.Reoptimize(next, 2, changed, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	if warmRes.Patched != len(changed) {
		t.Errorf("patched %d, want %d", warmRes.Patched, len(changed))
	}
	coldFull, err := Search(next, opts)
	if err != nil {
		t.Fatal(err)
	}
	coldSmall, err := Search(next, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	if warmRes.MeanCost > coldFull.MeanCost*1.01 {
		t.Errorf("warm at 15%% budget (mean %v) fell behind full-budget cold (mean %v)",
			warmRes.MeanCost, coldFull.MeanCost)
	}
	if warmRes.MeanCost > coldSmall.MeanCost*(1+1e-9) {
		t.Errorf("warm at small budget (mean %v) did not beat equal-budget cold (mean %v)",
			warmRes.MeanCost, coldSmall.MeanCost)
	}
}
