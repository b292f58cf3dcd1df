package anyopt

// The one optimize path. The paper's optimiser is a single SPLPO solve
// (Appendix B) asked several ways — the best k sites inside an offline budget
// (§5.3), the same with a site out for maintenance (§1), the same under
// client loads and site capacities (Appendix B) — so every question is a
// field of OptimizeOptions and Snapshot.OptimizeWith answers all of them: it
// builds the instance once and picks the solver in one place (exactMaxSites).

import (
	"fmt"
	"time"

	"anyopt/internal/core/splpo"
)

// exactMaxSites is the solver-selection policy: a testbed of at most this
// many sites, asked without a TimeBudget, is enumerated (2^20 subsets at
// most, pruned by a lower bound); anything else runs the branch-and-bound.
// Both return the same optimum; enumeration is faster this small, and its
// MaxSubsets budget is the paper's.
const exactMaxSites = 20

// OptimizeOptions configures OptimizeWith. The zero value asks for the best
// configuration of any size over uniform client loads.
type OptimizeOptions struct {
	// K restricts the search to exactly K open sites (0 = any size).
	K int
	// MaxSubsets bounds the exact enumeration, mirroring the paper's offline
	// time budget (0 = unlimited). The branch-and-bound ignores it; its
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
	// TimeBudget, when positive, runs the branch-and-bound under a
	// wall-clock deadline whatever the testbed size: past the deadline it
	// answers with the best configuration found so far, unproven. Zero
	// enumerates up to exactMaxSites sites and runs the branch-and-bound to
	// completion past that.
	TimeBudget time.Duration
}

// OptimizeResult is the outcome of an offline configuration search.
type OptimizeResult struct {
	// Config is the chosen configuration in deployable announcement order.
	Config Config
	// PredictedMean is the optimizer's predicted mean client RTT.
	PredictedMean time.Duration
	// SubsetsEvaluated counts configurations examined: enumerated subsets,
	// or the subsets the branch-and-bound priced in full.
	SubsetsEvaluated int
	// OrderableClients is the number of clients in the optimization.
	OrderableClients int
	// Proven reports that Config is the optimum: false when a TimeBudget or
	// a MaxSubsets budget that ran out cut the search short.
	Proven bool
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
	opts := splpo.Options{ExactSize: o.K, MaxSubsets: o.MaxSubsets, RequireFeasible: in.Cap != nil, Forbidden: forbidden}
	var best splpo.Assignment
	var evaluated int
	var proven bool
	if o.TimeBudget <= 0 && in.NumSites <= exactMaxSites {
		best, evaluated, err = splpo.Exhaustive(in, opts)
		proven = o.MaxSubsets == 0 || evaluated < o.MaxSubsets
	} else {
		// The solver never reads the clock: the deadline crosses as a closure.
		var stop func() bool
		if o.TimeBudget > 0 {
			deadline := time.Now().Add(o.TimeBudget)
			stop = func() bool { return time.Now().After(deadline) }
		}
		best, evaluated, proven, err = splpo.Solve(in, opts, stop)
	}
	if err != nil {
		return OptimizeResult{}, fmt.Errorf("anyopt: optimize: %w", err)
	}
	return OptimizeResult{
		Config:           sn.Pred.SiteSetToConfig(best.Open, sn.AnnOrder),
		PredictedMean:    time.Duration(best.MeanCost * float64(time.Millisecond)),
		SubsetsEvaluated: evaluated,
		OrderableClients: len(clients),
		Proven:           proven,
	}, nil
}

// excludedSites turns site IDs into the set of SPLPO site indices a search
// must avoid.
func excludedSites(numSites int, exclude []int) (splpo.SiteSet, error) {
	forbidden := splpo.NewSiteSet(numSites)
	for _, id := range exclude {
		if id < 1 || id > numSites {
			return forbidden, fmt.Errorf("anyopt: cannot exclude unknown site %d", id)
		}
		forbidden.Add(id - 1)
	}
	return forbidden, nil
}
