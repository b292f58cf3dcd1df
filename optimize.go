package anyopt

// Anytime optimization facade: routes configuration search to the right
// SPLPO solver. Paper-scale testbeds (≤63 sites) keep the exact bitmask
// solvers; larger networks — or any caller with a wall-clock budget — use
// the anytime link-guided local search, optionally as parallel multi-start
// through internal/exec. Warm-restart re-optimization across campaign
// snapshots lives here too, keyed to the snapshot generation counter.

import (
	"fmt"
	"time"

	"anyopt/internal/core/splpo"
	"anyopt/internal/exec"
)

// OptimizeOptions configures OptimizeWith.
type OptimizeOptions struct {
	// K restricts the search to exactly K open sites (0 = any size).
	K int
	// MaxSubsets bounds the exhaustive enumeration on bitmask-scale
	// networks (0 = unlimited). Ignored by the anytime solver, whose budget
	// is TimeBudget.
	MaxSubsets int
	// Exclude lists site IDs the configuration must avoid.
	Exclude []int
	// TimeBudget, when positive, runs the anytime solver under a wall-clock
	// deadline even on bitmask-scale networks — the operational "give me the
	// best configuration you can find in 200ms" knob. Zero keeps the exact
	// solvers on small networks; networks past 63 sites always use the
	// anytime solver (with a generous default work budget when no deadline
	// is set).
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

// OptimizeWith searches for the lowest-predicted-latency configuration
// against this snapshot's frozen campaign under the given options.
func (sn *Snapshot) OptimizeWith(o OptimizeOptions) (OptimizeResult, error) {
	in, clients := sn.Pred.BuildInstance(sn.AnnOrder)
	if o.TimeBudget <= 0 && in.NumSites <= 63 {
		if len(o.Exclude) > 0 {
			return sn.OptimizeExcluding(o.K, o.MaxSubsets, o.Exclude...)
		}
		return sn.Optimize(o.K, o.MaxSubsets)
	}
	sopts, err := sn.searchOptions(in, o)
	if err != nil {
		return OptimizeResult{}, err
	}
	if o.Restarts > 1 {
		pool := exec.New(o.Workers)
		defer pool.Close()
		res, err := splpo.SearchParallel(in, sopts, o.Restarts, pool)
		if err != nil {
			return OptimizeResult{}, fmt.Errorf("anyopt: optimize: %w", err)
		}
		return sn.searchResult(res, len(clients)), nil
	}
	return sn.search(in, len(clients), sopts)
}

// search runs one serial anytime solve and reports it in facade terms.
func (sn *Snapshot) search(in *splpo.Instance, clients int, sopts splpo.SearchOptions) (OptimizeResult, error) {
	res, err := splpo.Search(in, sopts)
	if err != nil {
		return OptimizeResult{}, fmt.Errorf("anyopt: optimize: %w", err)
	}
	return sn.searchResult(res, clients), nil
}

// searchResult translates an anytime solver result into an OptimizeResult
// over clients orderable clients.
func (sn *Snapshot) searchResult(res splpo.Result, clients int) OptimizeResult {
	return OptimizeResult{
		Config:           sn.Pred.SiteSetToConfig(res.Open, sn.AnnOrder),
		PredictedMean:    time.Duration(res.MeanCost * float64(time.Millisecond)),
		SubsetsEvaluated: res.Evals,
		OrderableClients: clients,
		Evals:            res.Evals,
		Moves:            res.Moves,
	}
}

// searchOptions translates facade options into solver options, attaching a
// wall-clock Stop when a TimeBudget is set (the solver itself never reads
// the clock — the deadline crosses the boundary as a closure).
func (sn *Snapshot) searchOptions(in *splpo.Instance, o OptimizeOptions) (splpo.SearchOptions, error) {
	sopts := splpo.SearchOptions{
		ExactSize:       o.K,
		RequireFeasible: in.Cap != nil,
		Seed:            o.Seed,
	}
	if len(o.Exclude) > 0 {
		sopts.Forbidden = splpo.NewSiteSet(in.NumSites)
		for _, id := range o.Exclude {
			if id < 1 || id > in.NumSites {
				return sopts, fmt.Errorf("anyopt: cannot exclude unknown site %d", id)
			}
			sopts.Forbidden.Add(id - 1)
		}
	}
	if o.TimeBudget > 0 {
		deadline := time.Now().Add(o.TimeBudget)
		sopts.Stop = func() bool { return time.Now().After(deadline) }
		// The work budget becomes a backstop; the deadline is the governor.
		sopts.MaxWork = int64(^uint64(0) >> 2)
	}
	return sopts, nil
}

// OptimizeWith is Snapshot.OptimizeWith against the current campaign.
func (s *System) OptimizeWith(o OptimizeOptions) (OptimizeResult, error) {
	snap, err := s.requireDiscovery()
	if err != nil {
		return OptimizeResult{}, err
	}
	return snap.OptimizeWith(o)
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
	in, clients := sn.Pred.BuildInstance(sn.AnnOrder)
	sopts, err := sn.searchOptions(in, o)
	if err != nil {
		return OptimizeResult{}, splpo.Result{}, err
	}
	var res splpo.Result
	switch {
	case w.warm == nil:
		w.warm, err = splpo.NewWarm(in, sn.Gen)
		if err == nil {
			res, err = w.warm.Solve(sopts)
		}
	case sn.Gen == w.gen:
		res, err = w.warm.Solve(sopts)
	default:
		changed := diffInstances(w.in, in, w.clients, clients)
		if changed == nil {
			// Population changed shape: cold restart.
			w.warm, err = splpo.NewWarm(in, sn.Gen)
			if err == nil {
				res, err = w.warm.Solve(sopts)
			}
		} else {
			res, err = w.warm.Reoptimize(in, sn.Gen, changed, sopts)
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
		len(prev.Clients) != len(next.Clients) ||
		(prev.Cap == nil) != (next.Cap == nil) {
		return nil
	}
	for i := range prevClients {
		if prevClients[i] != nextClients[i] {
			return nil
		}
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
	if a.Weight != b.Weight || a.Load != b.Load ||
		len(a.Ranking) != len(b.Ranking) {
		return false
	}
	for i := range a.Ranking {
		if a.Ranking[i] != b.Ranking[i] || a.RankCost[i] != b.RankCost[i] {
			return false
		}
	}
	return true
}
