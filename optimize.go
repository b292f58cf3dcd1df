package anyopt

// The one optimize path. The paper's optimiser is a single SPLPO solve
// (Appendix B) asked several ways — the best k sites inside an offline budget
// (§5.3), the same with a site out for maintenance (§1), the same under
// client loads and site capacities (Appendix B) — so every question is a
// field of OptimizeOptions and Snapshot.OptimizeWith answers all of them: it
// builds the instance once, picks the solver in one place (exactMaxSites) and
// reports which one ran. Warm-restart re-optimization across campaign
// snapshots lives here too, keyed to the snapshot generation counter.

import (
	"fmt"
	"slices"
	"time"

	"anyopt/internal/core/splpo"
	"anyopt/internal/exec"
)

// exactMaxSites is the solver-selection policy: a testbed of at most this
// many sites, asked without a TimeBudget, is enumerated exactly (2^20
// subsets at most); anything else runs the anytime local search.
const exactMaxSites = 20

// OptimizeOptions configures OptimizeWith. The zero value asks for the best
// configuration of any size over uniform client loads.
type OptimizeOptions struct {
	// K restricts the search to exactly K open sites (0 = any size).
	K int
	// MaxSubsets bounds the exact enumeration, mirroring the paper's offline
	// time budget (0 = unlimited). Ignored by the anytime solver, whose
	// budget is TimeBudget.
	MaxSubsets int
	// Exclude lists site IDs the configuration must avoid — §1's "regular
	// maintenance": a site is down, and the saved campaign re-optimizes the
	// rest offline.
	Exclude []int
	// Loads and Caps are the Appendix B extensions. Loads assigns each
	// client a demand (default 1) that weights its RTT contribution and
	// counts against capacity; Caps limits the total load a site may absorb
	// (site ID → capacity). With Caps set only feasible configurations —
	// every client served, no site over capacity — are considered.
	Loads map[Client]float64
	Caps  map[int]float64
	// TimeBudget, when positive, runs the anytime solver under a wall-clock
	// deadline whatever the testbed size — the operational "give me the best
	// configuration you can find in 200ms" knob. Zero enumerates exactly up
	// to exactMaxSites sites and runs the anytime solver (under its default
	// work budget) past that.
	TimeBudget time.Duration
	// Restarts is the number of parallel multi-start runs for the anytime
	// solver (0 = 1, serial).
	Restarts int
	// Workers sizes the executor pool for parallel restarts (0 = GOMAXPROCS).
	Workers int
	// Seed makes anytime runs deterministic under a pure work budget
	// (deadline runs are inherently timing-dependent); 0 means 1.
	Seed int64
}

// OptimizeResult is the outcome of an offline configuration search.
type OptimizeResult struct {
	// Config is the chosen configuration in deployable announcement order.
	Config Config
	// PredictedMean is the optimizer's predicted mean client RTT.
	PredictedMean time.Duration
	// SubsetsEvaluated counts configurations examined.
	SubsetsEvaluated int
	// OrderableClients is the number of clients in the optimization.
	OrderableClients int
	// Anytime reports which solver answered: false is exact enumeration,
	// true the anytime local search.
	Anytime bool
	// Evals and Moves are the anytime solver's counters (candidate moves
	// evaluated, moves accepted); zero after an exact enumeration.
	Evals int
	Moves int
}

// Optimize searches for the lowest-predicted-latency configuration with
// exactly k sites (k = 0 searches all sizes) inside a budget of maxSubsets
// enumerated subsets (0 = unlimited): OptimizeWith in its quickstart form.
func (sn *Snapshot) Optimize(k, maxSubsets int) (OptimizeResult, error) {
	return sn.OptimizeWith(OptimizeOptions{K: k, MaxSubsets: maxSubsets})
}

// OptimizeWith searches for the lowest-predicted-latency configuration
// against this snapshot's frozen campaign under the given options. The SPLPO
// instance is built fresh per call, so concurrent optimizations share nothing
// but read-only campaign data.
func (sn *Snapshot) OptimizeWith(o OptimizeOptions) (OptimizeResult, error) {
	in, clients := sn.Pred.BuildInstanceWeighted(sn.AnnOrder, o.Loads, o.Caps)
	forbidden, err := excludedSites(in.NumSites, o.Exclude)
	if err != nil {
		return OptimizeResult{}, err
	}
	if o.TimeBudget <= 0 && in.NumSites <= exactMaxSites {
		best, evaluated, err := splpo.Exhaustive(in, splpo.Options{
			ExactSize: o.K, MaxSubsets: o.MaxSubsets, RequireFeasible: in.Cap != nil, Forbidden: forbidden,
		})
		if err != nil {
			return OptimizeResult{}, fmt.Errorf("anyopt: optimize: %w", err)
		}
		return OptimizeResult{
			Config:           sn.Pred.SiteSetToConfig(best.Open, sn.AnnOrder),
			PredictedMean:    time.Duration(best.MeanCost * float64(time.Millisecond)),
			SubsetsEvaluated: evaluated,
			OrderableClients: len(clients),
		}, nil
	}
	sopts := searchOptions(in, forbidden, o)
	var res splpo.Result
	if o.Restarts > 1 {
		pool := exec.New(o.Workers)
		defer pool.Close()
		res, err = splpo.SearchParallel(in, sopts, o.Restarts, pool)
	} else {
		res, err = splpo.Search(in, sopts)
	}
	if err != nil {
		return OptimizeResult{}, fmt.Errorf("anyopt: optimize: %w", err)
	}
	return sn.searchResult(res, len(clients)), nil
}

// searchResult translates an anytime solver result into an OptimizeResult
// over clients orderable clients.
func (sn *Snapshot) searchResult(res splpo.Result, clients int) OptimizeResult {
	return OptimizeResult{
		Config:           sn.Pred.SiteSetToConfig(res.Open, sn.AnnOrder),
		PredictedMean:    time.Duration(res.MeanCost * float64(time.Millisecond)),
		SubsetsEvaluated: res.Evals,
		OrderableClients: clients,
		Anytime:          true,
		Evals:            res.Evals,
		Moves:            res.Moves,
	}
}

// excludedSites turns site IDs into the set of SPLPO site indices a search
// must avoid (the zero SiteSet when there are none).
func excludedSites(numSites int, exclude []int) (splpo.SiteSet, error) {
	if len(exclude) == 0 {
		return splpo.SiteSet{}, nil
	}
	forbidden := splpo.NewSiteSet(numSites)
	for _, id := range exclude {
		if id < 1 || id > numSites {
			return forbidden, fmt.Errorf("anyopt: cannot exclude unknown site %d", id)
		}
		forbidden.Add(id - 1)
	}
	return forbidden, nil
}

// searchOptions translates facade options into anytime solver options,
// attaching a wall-clock Stop when a TimeBudget is set (the solver itself
// never reads the clock — the deadline crosses the boundary as a closure).
func searchOptions(in *splpo.Instance, forbidden splpo.SiteSet, o OptimizeOptions) splpo.SearchOptions {
	sopts := splpo.SearchOptions{
		ExactSize:       o.K,
		RequireFeasible: in.Cap != nil,
		Forbidden:       forbidden,
		Seed:            o.Seed,
	}
	if o.TimeBudget > 0 {
		deadline := time.Now().Add(o.TimeBudget)
		sopts.Stop = func() bool { return time.Now().After(deadline) }
		// The work budget becomes a backstop; the deadline is the governor.
		sopts.MaxWork = int64(^uint64(0) >> 2)
	}
	return sopts
}

// WarmOptimizer re-optimizes across campaign snapshots incrementally. It
// caches the SPLPO instance, the solver's inverted index, and the best
// configuration from the previous run; when a new snapshot generation
// arrives it diffs the instances row-by-row, patches the index for exactly
// the changed clients, and resumes the search from the previous optimum.
// The payoff is the "Anycast Agility" playbook loop: re-optimizing after
// partial preference churn costs O(changed clients) setup instead of a
// cold rebuild, and converges in few moves because the warm start is
// already near-optimal.
//
// A WarmOptimizer is not safe for concurrent use; serialize callers (the
// API's writer path does).
type WarmOptimizer struct {
	warm    *splpo.Warm
	in      *splpo.Instance
	clients []Client
	gen     uint64
}

// NewWarmOptimizer returns an empty handle; the first Reoptimize call is a
// cold solve.
func NewWarmOptimizer() *WarmOptimizer { return &WarmOptimizer{} }

// Gen returns the snapshot generation of the last solve (0 = never solved).
func (w *WarmOptimizer) Gen() uint64 { return w.gen }

// Reoptimize solves against the given snapshot, reusing as much of the
// previous solve as the snapshot delta allows: same generation continues
// refining, a changed generation with the same client population patches
// incrementally, anything else falls back to a cold solve. The result also
// reports how many client rows were patched (Patched > 0 ⇒ incremental).
func (w *WarmOptimizer) Reoptimize(sn *Snapshot, o OptimizeOptions) (OptimizeResult, splpo.Result, error) {
	in, clients := sn.Pred.BuildInstanceWeighted(sn.AnnOrder, o.Loads, o.Caps)
	forbidden, err := excludedSites(in.NumSites, o.Exclude)
	if err != nil {
		return OptimizeResult{}, splpo.Result{}, err
	}
	sopts := searchOptions(in, forbidden, o)
	var res splpo.Result
	var changed []int
	if w.warm != nil && sn.Gen != w.gen {
		changed = diffInstances(w.in, in, w.clients, clients)
	}
	switch {
	case w.warm != nil && sn.Gen == w.gen:
		res, err = w.warm.Solve(sopts)
	case changed != nil:
		res, err = w.warm.Reoptimize(in, sn.Gen, changed, sopts)
	default:
		// First solve, or the population changed shape: cold start.
		if w.warm, err = splpo.NewWarm(in, sn.Gen); err == nil {
			res, err = w.warm.Solve(sopts)
		}
	}
	if err != nil {
		return OptimizeResult{}, splpo.Result{}, fmt.Errorf("anyopt: warm reoptimize: %w", err)
	}
	w.in, w.clients, w.gen = in, clients, sn.Gen
	return sn.searchResult(res, len(clients)), res, nil
}

// diffInstances returns the rows of next whose ranking, costs, weight, or
// load differ from prev, or nil when the instances are not row-compatible
// (different site counts, client populations, or capacitation).
func diffInstances(prev, next *splpo.Instance, prevClients, nextClients []Client) []int {
	if prev == nil || prev.NumSites != next.NumSites ||
		(prev.Cap == nil) != (next.Cap == nil) ||
		!slices.Equal(prevClients, nextClients) {
		return nil
	}
	changed := []int{}
	for i := range next.Clients {
		if !sameClientRow(&prev.Clients[i], &next.Clients[i]) {
			changed = append(changed, i)
		}
	}
	return changed
}

func sameClientRow(a, b *splpo.Client) bool {
	return a.Weight == b.Weight && a.Load == b.Load &&
		slices.Equal(a.Ranking, b.Ranking) && slices.Equal(a.RankCost, b.RankCost)
}
