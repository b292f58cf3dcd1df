// Package splpo implements the Simple Plant Location Problem with Preference
// Orderings (Appendix B): clients choose their most preferred *open* site,
// and the operator picks the set of open sites minimizing total (or mean)
// cost subject to optional per-site load caps.
//
// The general problem is NP-hard (even to approximate — Appendix B.1 reduces
// Dominating Set to it). The package offers two exact solvers that return
// the same answer: Exhaustive, the enumerator that matches the paper's "as
// many configurations as we can compute within a time bound" approach (§5.3)
// and prunes by a lower bound (bound.go), and Solve, a branch-and-bound that
// proves its answer optimal without enumerating (solve.go). The baselines the
// paper compares against (greedy-by-unicast-RTT, random) complete it.
//
// A set of sites is a SiteSet everywhere: in solver options, in results and
// in the baselines. It is one machine word, so an instance has at most
// MaxSites sites; the largest testbed the product builds has 36.
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
	// Appendix B). Sites absent from Ranking are never used.
	Ranking []int
	// RankCost[i] is the cost of serving this client from Ranking[i]. Costs
	// follow the ranking rather than the site index, so an instance stays
	// linear in the total ranking length at any site count.
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

// MaxSites is the largest site count an instance may have: a SiteSet is one
// machine word, and the solvers count subsets in one.
const MaxSites = 63

// Validate checks structural sanity.
func (in *Instance) Validate() error {
	if in.NumSites <= 0 {
		return fmt.Errorf("splpo: NumSites = %d", in.NumSites)
	}
	if in.NumSites > MaxSites {
		return fmt.Errorf("splpo: %d sites, at most %d are supported", in.NumSites, MaxSites)
	}
	if in.Cap != nil && len(in.Cap) != in.NumSites {
		return fmt.Errorf("splpo: Cap has %d entries for %d sites", len(in.Cap), in.NumSites)
	}
	// seen is one scratch for every client, cleared by un-marking exactly the
	// sites the previous client ranked.
	seen := make([]bool, in.NumSites)
	for i := range in.Clients {
		c := &in.Clients[i]
		if len(c.RankCost) != len(c.Ranking) {
			return fmt.Errorf("splpo: client %d has %d rank costs for %d ranked sites", i, len(c.RankCost), len(c.Ranking))
		}
		for _, s := range c.Ranking {
			if s < 0 || s >= in.NumSites {
				return fmt.Errorf("splpo: client %d ranks unknown site %d", i, s)
			}
			if seen[s] {
				return fmt.Errorf("splpo: client %d ranks site %d twice", i, s)
			}
			seen[s] = true
		}
		for _, s := range c.Ranking {
			seen[s] = false
		}
	}
	return nil
}

// weight returns the client's cost weight (default 1).
func (c *Client) weight() float64 {
	if c.Weight == 0 {
		return 1
	}
	return c.Weight
}

// Assignment is the outcome of evaluating one set of open sites.
type Assignment struct {
	// Open is the set of open sites.
	Open SiteSet
	// TotalCost is the weighted sum of client costs; Infinity when a client
	// is unserved.
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

// assign evaluates open in full and reports it as an Assignment.
func (in *Instance) assign(open SiteSet) Assignment {
	siteLoad := make([]float64, in.NumSites)
	st := in.EvaluateSet(open, siteLoad)
	a := Assignment{
		Open:      open,
		TotalCost: st.FiniteCost,
		MeanCost:  st.MeanCost(),
		Served:    st.Served,
		Feasible:  st.Open > 0 && st.Feasible(),
		SiteLoad:  siteLoad,
	}
	if st.Open == 0 || st.Unserved > 0 {
		a.TotalCost = Infinity
	}
	return a
}

// Stats is the evaluation outcome the solvers compare: the quantities
// Assignment carries, with infeasibility decomposed into its two causes
// (unserved clients, capacity excess).
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

// EvaluateSet evaluates one set of open sites. siteLoad is optional scratch
// of length NumSites; pass nil to allocate. The per-site loads are left in
// siteLoad when provided.
func (in *Instance) EvaluateSet(open SiteSet, siteLoad []float64) Stats {
	if siteLoad == nil {
		siteLoad = make([]float64, in.NumSites)
	}
	return in.evaluateWord(open.word(), siteLoad[:in.NumSites])
}

// evaluateWord is the kernel: the full evaluation of the subset open (bit s =
// site s), with the per-site loads left in siteLoad. Every solver prices a
// subset with it, so they agree to the last bit.
func (in *Instance) evaluateWord(open uint64, siteLoad []float64) Stats {
	clear(siteLoad)
	st := Stats{Open: bits.OnesCount64(open)}
	for i := range in.Clients {
		c := &in.Clients[i]
		pos := -1
		for p, s := range c.Ranking {
			if open&(1<<uint(s)) != 0 {
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
		for s, load := range siteLoad {
			if open&(1<<uint(s)) != 0 && load > in.Cap[s] {
				st.CapExcess += load - in.Cap[s]
			}
		}
	}
	return st
}

// Options is the question a solver answers.
type Options struct {
	// ExactSize restricts to subsets with exactly this many open sites
	// (0 = any size).
	ExactSize int
	// MaxSubsets bounds how many subsets Exhaustive evaluates — the
	// paper's offline time budget (0 = unlimited). Solve ignores it.
	MaxSubsets int
	// RequireFeasible rejects infeasible assignments.
	RequireFeasible bool
	// Forbidden excludes sites from every considered subset — e.g., a site
	// that is down for maintenance. The zero value forbids nothing.
	Forbidden SiteSet
}

// Exhaustive enumerates subsets (optionally size-restricted, optionally
// budgeted) and returns the minimum-mean-cost assignment plus the number of
// subsets evaluated.
//
// Every enumerated subset counts as evaluated, but only the ones a lower
// bound cannot rule out reach the exact kernel (bound.go): a subset whose
// proven mean is no better than the incumbent's could not have replaced it,
// so the answer is the one a full evaluation of every subset gives.
func Exhaustive(in *Instance, opts Options) (Assignment, int, error) {
	best, evaluated, _, err := exhaustive(in, opts)
	return best, evaluated, err
}

// exhaustive is Exhaustive that also reports how many subsets the exact
// kernel evaluated, the rest having been ruled out by the lower bound.
func exhaustive(in *Instance, opts Options) (best Assignment, evaluated, exact int, err error) {
	if err := in.Validate(); err != nil {
		return Assignment{}, 0, 0, err
	}
	forbidden := opts.Forbidden.word()
	bestMean, bestOpen := Infinity, uint64(0)
	siteLoad := make([]float64, in.NumSites)
	lb := newLowerBound(in)
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
		if bestOpen != 0 && lb.rulesOut(open, bestMean) {
			continue
		}
		exact++
		st := in.evaluateWord(open, siteLoad)
		if opts.RequireFeasible && !st.Feasible() {
			continue
		}
		if mean := st.MeanCost(); mean < bestMean {
			bestMean, bestOpen = mean, open
		}
	}
	if bestOpen == 0 {
		return Assignment{TotalCost: Infinity, MeanCost: Infinity}, evaluated, exact, fmt.Errorf("splpo: no acceptable subset found")
	}
	return in.assign(siteSetOfWord(in.NumSites, bestOpen)), evaluated, exact, nil
}

// GreedyByCost returns the k sites with the lowest mean cost over all
// clients — the paper's "greedy approach that enables sites with the lowest
// average unicast latency" (§5.3).
func GreedyByCost(in *Instance, k int) (Assignment, error) {
	if err := in.Validate(); err != nil {
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
			sums[s] += c.RankCost[p]
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
	open := NewSiteSet(in.NumSites)
	for _, sm := range means[:k] {
		open.Add(sm.site)
	}
	return in.assign(open), nil
}

// RandomSubset evaluates a uniformly random subset of exactly k sites.
func RandomSubset(in *Instance, k int, rng *rand.Rand) (Assignment, error) {
	if err := in.Validate(); err != nil {
		return Assignment{}, err
	}
	if k <= 0 || k > in.NumSites {
		return Assignment{}, fmt.Errorf("splpo: random size %d out of range", k)
	}
	return in.assign(SiteSetOf(in.NumSites, rng.Perm(in.NumSites)[:k]...)), nil
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
