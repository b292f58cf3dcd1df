package splpo

// Head-to-head solver benchmarks at the three scales the repo targets:
// the paper's 15-site testbed, the §4.5 Akamai-scale 500 sites, and the
// ROADMAP's internet-scale 5k sites. The baseline at scale is the shape of
// the retired bitmask local search generalized past 64 sites:
// first-improvement swap search where every candidate pays a full EvaluateSet over all
// clients. The anytime solver replaces that full re-evaluation with
// journaled delta moves; these benches record both wall-clock and
// client-touch counts, so the ≥10× claim is stated in units that survive
// hardware changes.

import (
	"math/rand"
	"testing"
)

func bench15Instance() *Instance {
	return randomInstance(rand.New(rand.NewSource(8)), 15, 300)
}

func bench500Instance() *Instance {
	return randomSparseInstance(rand.New(rand.NewSource(8)), 500, 4000, 16, false)
}

func bench5kInstance() *Instance {
	return randomSparseInstance(rand.New(rand.NewSource(8)), 5000, 20000, 24, false)
}

func BenchmarkSolver15Exhaustive(b *testing.B) {
	in := bench15Instance()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Exhaustive(in, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolver15Anytime runs the multi-start configuration the facade
// uses; 8 restarts pin this instance to the exhaustive optimum (the
// mean-gap-ms metric records the distance — expected 0).
func BenchmarkSolver15Anytime(b *testing.B) {
	in := bench15Instance()
	want, _, err := Exhaustive(in, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var res Result
	for i := 0; i < b.N; i++ {
		res, err = SearchParallel(in, SearchOptions{Seed: 1}, 8, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.MeanCost-want.MeanCost, "mean-gap-ms")
	b.ReportMetric(float64(res.Work), "clienttouches/op")
}

// swapFullReevalToFeasible is the generalized full-re-evaluation baseline:
// first-improvement add/drop/swap search over a SiteSet where every
// candidate is priced by a full EvaluateSet pass over all clients. It runs
// until it finds a feasible (all-served) configuration of exactly k sites,
// returning the number of full evaluations spent.
func swapFullReevalToFeasible(b *testing.B, in *Instance, k int) int {
	rng := rand.New(rand.NewSource(1))
	open := NewSiteSet(in.NumSites)
	for _, s := range rng.Perm(in.NumSites)[:k] {
		open.Add(s)
	}
	siteLoad := make([]float64, in.NumSites)
	evals := 0
	cur := in.EvaluateSet(open, siteLoad)
	evals++
	for cur.Unserved > 0 {
		improved := false
		for drop := 0; drop < in.NumSites && cur.Unserved > 0; drop++ {
			if !open.Has(drop) {
				continue
			}
			for add := 0; add < in.NumSites; add++ {
				if open.Has(add) {
					continue
				}
				open.Remove(drop)
				open.Add(add)
				st := in.EvaluateSet(open, siteLoad)
				evals++
				if st.Unserved < cur.Unserved {
					cur = st
					improved = true
					break
				}
				open.Remove(add)
				open.Add(drop)
			}
		}
		if !improved {
			b.Fatal("baseline stuck before feasibility")
		}
	}
	return evals
}

// BenchmarkFeasible500Baseline and BenchmarkFeasible500Anytime measure
// time-to-first-feasible for k=100 of 500 sites — the §4.5 scale. The
// baseline's cost unit is full evaluations × clients (client touches);
// the anytime solver reports its exact touch counter.
func BenchmarkFeasible500Baseline(b *testing.B) {
	in := bench500Instance()
	b.ResetTimer()
	evals := 0
	for i := 0; i < b.N; i++ {
		evals = swapFullReevalToFeasible(b, in, 100)
	}
	b.ReportMetric(float64(evals), "evals/op")
	b.ReportMetric(float64(evals)*float64(len(in.Clients)), "clienttouches/op")
}

func BenchmarkFeasible500Anytime(b *testing.B) {
	in := bench500Instance()
	b.ResetTimer()
	var res Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = Search(in, SearchOptions{
			Seed:                  1,
			ExactSize:             100,
			RequireFeasible:       true,
			StopAtFirstAcceptable: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Feasible {
			b.Fatal("not feasible")
		}
	}
	b.ReportMetric(float64(res.Evals), "evals/op")
	b.ReportMetric(float64(res.Work), "clienttouches/op")
}

// BenchmarkAnytime500Converged: full refinement at 500 sites under a fixed
// work budget (free size), reporting solution quality.
func BenchmarkAnytime500Converged(b *testing.B) {
	in := bench500Instance()
	b.ResetTimer()
	var res Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = Search(in, SearchOptions{Seed: 1, MaxWork: 4_000_000})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.MeanCost, "mean-ms")
	b.ReportMetric(float64(res.Moves), "moves/op")
}

// BenchmarkAnytime5k: internet scale under a fixed work budget.
func BenchmarkAnytime5k(b *testing.B) {
	in := bench5kInstance()
	b.ResetTimer()
	var res Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = Search(in, SearchOptions{Seed: 1, MaxWork: 20_000_000})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.MeanCost, "mean-ms")
	b.ReportMetric(float64(res.Stats.Unserved), "unserved")
}

// BenchmarkFullEval500 vs BenchmarkDeltaMove500: the per-move cost gap that
// makes the anytime solver fast — a full evaluation pass against one
// journaled swap (apply + rollback).
func BenchmarkFullEval500(b *testing.B) {
	in := bench500Instance()
	open := NewSiteSet(in.NumSites)
	for s := 0; s < in.NumSites; s += 2 {
		open.Add(s)
	}
	siteLoad := make([]float64, in.NumSites)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.EvaluateSet(open, siteLoad)
	}
}

func BenchmarkDeltaMove500(b *testing.B) {
	in := bench500Instance()
	open := NewSiteSet(in.NumSites)
	for s := 0; s < in.NumSites; s += 2 {
		open.Add(s)
	}
	d := NewDeltaEval(in, open)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mark := d.Mark()
		d.Close((i * 2) % in.NumSites)
		d.Open((i*2 + 1) % in.NumSites)
		_ = d.Stats()
		d.RollbackTo(mark)
	}
}

// BenchmarkWarmVsCold500: re-optimization after 2% churn, warm (patched
// index + warm start, small budget) against cold at the budget it needs for
// the same quality.
func BenchmarkWarmVsCold500(b *testing.B) {
	in := bench500Instance()
	rng := rand.New(rand.NewSource(2))
	next := &Instance{NumSites: in.NumSites}
	next.Clients = append([]Client(nil), in.Clients...)
	var changed []int
	for c := 0; c < len(next.Clients); c += 50 {
		perm := rng.Perm(in.NumSites)[:16]
		rankCost := make([]float64, 16)
		for i := range rankCost {
			rankCost[i] = 10 + rng.Float64()*190
		}
		next.Clients[c] = Client{Ranking: perm, RankCost: rankCost,
			Weight: next.Clients[c].Weight, Load: next.Clients[c].Load}
		changed = append(changed, c)
	}
	b.Run("Warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			w, err := NewWarm(in, 1)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := w.Solve(SearchOptions{Seed: 1, MaxWork: 4_000_000}); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			res, err := w.Reoptimize(next, 2, changed, SearchOptions{Seed: 1, MaxWork: 600_000})
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				b.ReportMetric(res.MeanCost, "mean-ms")
			}
		}
	})
	b.Run("Cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := Search(next, SearchOptions{Seed: 1, MaxWork: 4_000_000})
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				b.ReportMetric(res.MeanCost, "mean-ms")
			}
		}
	})
}
