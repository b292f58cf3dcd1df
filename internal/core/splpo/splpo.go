// Package splpo implements the Simple Plant Location Problem with Preference
// Orderings (Appendix B): clients choose their most preferred *open* site,
// and the operator picks the set of open sites minimizing total (or mean)
// cost subject to optional per-site load caps.
//
// The general problem is NP-hard (even to approximate — Appendix B.1 reduces
// Dominating Set to it), so the package offers an exhaustive solver for
// testbed-sized instances, a budgeted enumerator matching the paper's
// "as many configurations as we can compute within a time bound" approach
// (§5.3), and an anytime local-search solver for large networks, plus the
// baselines the paper compares against (greedy-by-unicast-RTT, random).
//
// Two solver families coexist:
//
//   - The bitmask solvers (Exhaustive, GreedyByCost, RandomSubset)
//     represent a configuration as a uint64 subset and are
//     limited to 63 sites — the paper's 15-site testbed scale.
//   - The anytime solver (Search, SearchParallel, Warm.Reoptimize in
//     anytime.go) represents a configuration as a SiteSet bitset and
//     evaluates moves incrementally through DeltaEval (delta.go), scaling to
//     the §4.5 Akamai analysis (500 sites / 20 transits) and beyond.
package splpo

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
)

// Infinity is the cost of an unserved client (no open site acceptable).
const Infinity = math.MaxFloat64 / 4

// Client is one demand point: a ranked list of acceptable sites (best first)
// and the cost of being served by each.
type Client struct {
	// Ranking lists site indices most-preferred first. A client assigned to
	// an open site always picks the first open entry (constraint (6) in
	// Appendix B).
	Ranking []int
	// Cost[s] is the cost of serving this client from site s. Sites absent
	// from Ranking are never used regardless of cost. Cost may be nil when
	// RankCost is set.
	Cost []float64
	// RankCost is the sparse alternative to Cost: RankCost[i] is the cost of
	// serving this client from Ranking[i]. For internet-scale instances a
	// dense per-site cost row is O(sites) per client; rankings are short
	// (only acceptable sites appear), so RankCost keeps instances linear in
	// the total ranking length. When both are set, RankCost wins.
	RankCost []float64
	// Load is the demand this client adds to its chosen site.
	Load float64
	// Weight scales the client's cost contribution (e.g., query volume).
	Weight float64
}

// Instance is an SPLPO instance.
type Instance struct {
	NumSites int
	Clients  []Client
	// Cap[s] is the load capacity of site s; nil means uncapacitated.
	Cap []float64
}

// Validate checks structural sanity. Instances of any site count validate;
// the 63-site limit applies only to the bitmask solvers, which enforce it
// themselves (see requireBitmaskScale).
func (in *Instance) Validate() error {
	if in.NumSites <= 0 {
		return fmt.Errorf("splpo: NumSites = %d", in.NumSites)
	}
	if in.Cap != nil && len(in.Cap) != in.NumSites {
		return fmt.Errorf("splpo: Cap has %d entries for %d sites", len(in.Cap), in.NumSites)
	}
	for i, c := range in.Clients {
		switch {
		case c.RankCost != nil:
			if len(c.RankCost) != len(c.Ranking) {
				return fmt.Errorf("splpo: client %d has %d rank costs for %d ranked sites", i, len(c.RankCost), len(c.Ranking))
			}
		case len(c.Cost) != in.NumSites:
			return fmt.Errorf("splpo: client %d has %d costs for %d sites", i, len(c.Cost), in.NumSites)
		}
		seen := map[int]bool{}
		for _, s := range c.Ranking {
			if s < 0 || s >= in.NumSites {
				return fmt.Errorf("splpo: client %d ranks unknown site %d", i, s)
			}
			if seen[s] {
				return fmt.Errorf("splpo: client %d ranks site %d twice", i, s)
			}
			seen[s] = true
		}
	}
	return nil
}

// costAt returns the cost of serving c from its pos-th ranked site.
func (c *Client) costAt(pos int) float64 {
	if c.RankCost != nil {
		return c.RankCost[pos]
	}
	return c.Cost[c.Ranking[pos]]
}

// weight returns the client's cost weight (default 1).
func (c *Client) weight() float64 {
	if c.Weight == 0 {
		return 1
	}
	return c.Weight
}

// requireBitmaskScale guards the uint64-subset solvers: past 63 sites the
// subset mask (and `uint64(1) << NumSites`) silently overflows, so they
// refuse loudly and point at the scalable solver.
func (in *Instance) requireBitmaskScale(solver string) error {
	if in.NumSites > 63 {
		return fmt.Errorf("splpo: %s is a uint64-bitmask solver limited to 63 sites, got %d; use Search or SearchParallel (anytime local search over SiteSet)", solver, in.NumSites)
	}
	return nil
}

// Assignment is the outcome of evaluating a subset.
type Assignment struct {
	// Subset is the bitmask of open sites.
	Subset uint64
	// TotalCost is the weighted sum of client costs (Infinity-free only if
	// Feasible).
	TotalCost float64
	// MeanCost is TotalCost divided by total weight of served clients.
	MeanCost float64
	// Served counts clients with an acceptable open site.
	Served int
	// Feasible is false when a load cap is exceeded or a client is
	// unservable.
	Feasible bool
	// SiteLoad is the load each site absorbed.
	SiteLoad []float64
}

// Sites expands the subset bitmask into a sorted site list.
func (a Assignment) Sites() []int {
	var out []int
	for s := 0; s < 64; s++ {
		if a.Subset&(1<<s) != 0 {
			out = append(out, s)
		}
	}
	return out
}

// Evaluate assigns every client to its most preferred open site and tallies
// cost and load.
func (in *Instance) Evaluate(subset uint64) Assignment {
	var a Assignment
	in.EvaluateInto(subset, &a)
	return a
}

// EvaluateInto is Evaluate writing into a caller-owned Assignment, reusing
// a.SiteLoad when its capacity suffices — the allocation-lean form for move
// loops that evaluate thousands of subsets (the enumerators).
func (in *Instance) EvaluateInto(subset uint64, a *Assignment) {
	if cap(a.SiteLoad) >= in.NumSites {
		a.SiteLoad = a.SiteLoad[:in.NumSites]
		for i := range a.SiteLoad {
			a.SiteLoad[i] = 0
		}
	} else {
		a.SiteLoad = make([]float64, in.NumSites)
	}
	a.Subset = subset
	a.TotalCost, a.MeanCost = 0, 0
	a.Served = 0
	a.Feasible = true
	if subset == 0 {
		a.Feasible = false
		a.TotalCost = Infinity
		a.MeanCost = Infinity
		return
	}
	var totalWeight float64
	for i := range in.Clients {
		c := &in.Clients[i]
		pos := -1
		for p, s := range c.Ranking {
			if subset&(1<<uint(s)) != 0 {
				pos = p
				break
			}
		}
		if pos < 0 {
			a.Feasible = false
			a.TotalCost = Infinity
			continue
		}
		w := c.weight()
		a.TotalCost += w * c.costAt(pos)
		totalWeight += w
		a.Served++
		a.SiteLoad[c.Ranking[pos]] += c.Load
	}
	if in.Cap != nil {
		for s, load := range a.SiteLoad {
			if subset&(1<<uint(s)) != 0 && load > in.Cap[s] {
				a.Feasible = false
			}
		}
	}
	if totalWeight > 0 && a.TotalCost < Infinity {
		a.MeanCost = a.TotalCost / totalWeight
	} else {
		a.MeanCost = Infinity
	}
}

// Stats is the scale-free evaluation outcome used by the SiteSet solvers:
// the same quantities Assignment carries, without the uint64 subset and with
// infeasibility decomposed into its two causes (unserved clients, capacity
// excess) so local search can descend through infeasible regions.
type Stats struct {
	// FiniteCost is the weighted cost sum over served clients only.
	FiniteCost float64
	// Weight is the total weight of served clients.
	Weight float64
	// Served and Unserved partition the clients.
	Served, Unserved int
	// CapExcess is the total load above capacity, summed over open sites.
	CapExcess float64
	// Open is the number of open sites.
	Open int
}

// Feasible reports whether every client is served and no cap is exceeded.
func (st Stats) Feasible() bool { return st.Unserved == 0 && st.CapExcess == 0 }

// MeanCost matches Assignment.MeanCost: Infinity when any client is
// unserved (or none are served), the weighted mean otherwise.
func (st Stats) MeanCost() float64 {
	if st.Unserved > 0 || st.Weight == 0 {
		return Infinity
	}
	return st.FiniteCost / st.Weight
}

// EvaluateSet is the full (non-incremental) evaluation of a SiteSet, valid
// at any site count. siteLoad is optional scratch of length NumSites; pass
// nil to allocate. The per-site loads are left in siteLoad when provided.
func (in *Instance) EvaluateSet(open SiteSet, siteLoad []float64) Stats {
	if siteLoad == nil {
		siteLoad = make([]float64, in.NumSites)
	} else {
		siteLoad = siteLoad[:in.NumSites]
		for i := range siteLoad {
			siteLoad[i] = 0
		}
	}
	var st Stats
	st.Open = open.Count()
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
		st.FiniteCost += w * c.costAt(pos)
		st.Weight += w
		st.Served++
		siteLoad[c.Ranking[pos]] += c.Load
	}
	if in.Cap != nil {
		open.ForEach(func(s int) {
			if siteLoad[s] > in.Cap[s] {
				st.CapExcess += siteLoad[s] - in.Cap[s]
			}
		})
	}
	return st
}

// Options bounds a solver run.
type Options struct {
	// ExactSize restricts to subsets with exactly this many open sites
	// (0 = any size).
	ExactSize int
	// MaxSubsets bounds how many subsets the enumerator evaluates — the
	// paper's offline time budget (0 = unlimited).
	MaxSubsets int
	// RequireFeasible rejects infeasible assignments.
	RequireFeasible bool
	// ForbiddenMask excludes sites (bitmask) from every considered subset —
	// e.g., a site that is down for maintenance.
	ForbiddenMask uint64
}

// Exhaustive enumerates subsets (optionally size-restricted, optionally
// budgeted) and returns the minimum-mean-cost assignment plus the number of
// subsets evaluated.
func Exhaustive(in *Instance, opts Options) (Assignment, int, error) {
	if err := in.Validate(); err != nil {
		return Assignment{}, 0, err
	}
	if err := in.requireBitmaskScale("Exhaustive"); err != nil {
		return Assignment{}, 0, err
	}
	best := Assignment{MeanCost: Infinity, TotalCost: Infinity}
	var scratch Assignment
	evaluated := 0
	limit := uint64(1) << uint(in.NumSites)
	for subset := uint64(1); subset < limit; subset++ {
		if subset&opts.ForbiddenMask != 0 {
			continue
		}
		if opts.ExactSize > 0 && bits.OnesCount64(subset) != opts.ExactSize {
			continue
		}
		if opts.MaxSubsets > 0 && evaluated >= opts.MaxSubsets {
			break
		}
		evaluated++
		in.EvaluateInto(subset, &scratch)
		if opts.RequireFeasible && !scratch.Feasible {
			continue
		}
		if scratch.MeanCost < best.MeanCost {
			best, scratch = scratch, best
		}
	}
	if best.TotalCost >= Infinity && best.Subset == 0 {
		return best, evaluated, fmt.Errorf("splpo: no acceptable subset found")
	}
	return best, evaluated, nil
}

// GreedyByCost returns the k sites with the lowest mean cost over all
// clients — the paper's "greedy approach that enables sites with the lowest
// average unicast latency" (§5.3).
func GreedyByCost(in *Instance, k int) (Assignment, error) {
	if err := in.Validate(); err != nil {
		return Assignment{}, err
	}
	if err := in.requireBitmaskScale("GreedyByCost"); err != nil {
		return Assignment{}, err
	}
	if k <= 0 || k > in.NumSites {
		return Assignment{}, fmt.Errorf("splpo: greedy size %d out of range", k)
	}
	type siteMean struct {
		site int
		mean float64
	}
	sums := make([]float64, in.NumSites)
	counts := make([]int, in.NumSites)
	for i := range in.Clients {
		c := &in.Clients[i]
		// Only clients that can use the site contribute.
		for p, s := range c.Ranking {
			sums[s] += c.costAt(p)
			counts[s]++
		}
	}
	means := make([]siteMean, in.NumSites)
	for s := 0; s < in.NumSites; s++ {
		m := Infinity
		if counts[s] > 0 {
			m = sums[s] / float64(counts[s])
		}
		means[s] = siteMean{s, m}
	}
	sort.Slice(means, func(i, j int) bool {
		if means[i].mean != means[j].mean {
			return means[i].mean < means[j].mean
		}
		return means[i].site < means[j].site
	})
	var subset uint64
	for _, sm := range means[:k] {
		subset |= 1 << uint(sm.site)
	}
	return in.Evaluate(subset), nil
}

// RandomSubset evaluates a uniformly random subset of exactly k sites.
func RandomSubset(in *Instance, k int, rng *rand.Rand) (Assignment, error) {
	if err := in.Validate(); err != nil {
		return Assignment{}, err
	}
	if err := in.requireBitmaskScale("RandomSubset"); err != nil {
		return Assignment{}, err
	}
	if k <= 0 || k > in.NumSites {
		return Assignment{}, fmt.Errorf("splpo: random size %d out of range", k)
	}
	perm := rng.Perm(in.NumSites)
	var subset uint64
	for _, s := range perm[:k] {
		subset |= 1 << uint(s)
	}
	return in.Evaluate(subset), nil
}

// BestRandom evaluates n random subsets of size k and returns the best — the
// "best random configuration" baseline of §5.3.
func BestRandom(in *Instance, k, n int, rng *rand.Rand) (Assignment, error) {
	best := Assignment{MeanCost: Infinity}
	for i := 0; i < n; i++ {
		a, err := RandomSubset(in, k, rng)
		if err != nil {
			return Assignment{}, err
		}
		if a.MeanCost < best.MeanCost {
			best = a
		}
	}
	return best, nil
}
