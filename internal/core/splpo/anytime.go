package splpo

// The anytime link-guided local-search solver (SRTE-LS style): SiteSet
// configurations, DeltaEval move evaluation, cost-guided candidate
// selection, plateau escape by seeded perturbation, and warm-restart
// re-optimization. This is the solver for instances too large to enumerate
// — §4.5's Akamai-scale analysis (500 sites / 20 transits) and beyond — or
// asked under a deadline, and it is anytime: it returns the best
// configuration found when its evaluation budget (or an external Stop
// signal) runs out.
//
// Move selection is guided rather than exhaustive at scale: candidate sites
// to open are ranked by aggregate client regret (how much the clients that
// prefer a closed site would gain if it opened, read from the inverted
// index without mutating state), candidate sites to close by the weighted
// cost they currently serve. At or below 64 sites the candidate pools cover
// every site, so each round is a full best-improvement add/drop/swap
// neighborhood — the differential tests pin this regime to Exhaustive's
// optimum on paper-scale instances.

import (
	"fmt"
	"math/rand"
	"sort"

	"anyopt/internal/exec"
)

// DefaultSearchWork is the client-touch budget when SearchOptions leaves
// every budget unset: enough for paper-scale instances to converge to the
// optimum many times over, small enough to stay interactive at 5k sites.
const DefaultSearchWork = 20_000_000

// SearchOptions bounds one anytime local-search run. The zero value is
// usable: free subset size, no constraints, seed 1, DefaultSearchWork.
type SearchOptions struct {
	// ExactSize restricts to configurations with exactly this many open
	// sites (0 = any size).
	ExactSize int
	// RequireFeasible makes only feasible configurations (every client
	// served, no cap exceeded) acceptable as results.
	RequireFeasible bool
	// Forbidden excludes sites from every configuration. The zero SiteSet
	// forbids nothing.
	Forbidden SiteSet
	// Initial seeds the search with a starting configuration (forbidden
	// sites are stripped). Empty = greedy construction.
	Initial SiteSet
	// Seed makes the run deterministic; 0 means 1.
	Seed int64
	// MaxWork bounds the client-touch budget (DeltaEval.Work units); 0
	// selects DefaultSearchWork. The run is deterministic per (instance,
	// options) — wall-clock never changes the result, only Stop can.
	MaxWork int64
	// MaxMoves bounds accepted moves (0 = unlimited).
	MaxMoves int
	// Stop, when non-nil, is polled between move rounds; returning true
	// ends the run with the best-so-far. This is the wall-clock deadline
	// hook for callers outside the simulator's entropy contract.
	Stop func() bool
	// StopAtFirstAcceptable returns as soon as any acceptable configuration
	// is found instead of refining until the budget runs out — the
	// "time-to-feasible" mode for playbook precomputation and benches.
	StopAtFirstAcceptable bool
	// CandidateWidth is how many add/drop candidates are exact-evaluated
	// per round at guided scale (default 12).
	CandidateWidth int
	// Patience is how many non-improving rounds to tolerate before a
	// perturbation jump (default 8).
	Patience int
	// PerturbFrac is the fraction of open sites churned per perturbation
	// (default 0.25).
	PerturbFrac float64

	// restart tags parallel multi-start runs so each builds a different
	// initial configuration; set by SearchParallel.
	restart int
}

// Result is the outcome of an anytime search.
type Result struct {
	// Open is the best configuration found.
	Open SiteSet
	// Stats is the exact (full-evaluation) outcome of Open.
	Stats Stats
	// MeanCost is Stats.MeanCost(), for convenience.
	MeanCost float64
	// Feasible is Stats.Feasible().
	Feasible bool
	// Work is the client-touch count consumed (the evaluation budget unit).
	Work int64
	// Evals counts candidate moves evaluated via apply+rollback.
	Evals int
	// Moves counts accepted moves.
	Moves int
	// Perturbations counts plateau-escape jumps.
	Perturbations int
	// Patched counts clients repatched by a warm restart (0 on cold runs).
	Patched int
}

// guideObj is the search-guidance objective, ordered lexicographically:
// serve more clients first, then shed capacity excess, then lower the mean.
// Descending through infeasible regions this way is what lets the solver
// start from arbitrary configurations.
type guideObj struct {
	unserved  int
	capExcess float64
	mean      float64
}

func objOf(st Stats) guideObj {
	m := Infinity
	if st.Weight > 0 {
		m = st.FiniteCost / st.Weight
	}
	return guideObj{unserved: st.Unserved, capExcess: st.CapExcess, mean: m}
}

func (a guideObj) better(b guideObj) bool {
	if a.unserved != b.unserved {
		return a.unserved < b.unserved
	}
	if a.capExcess != b.capExcess {
		return a.capExcess < b.capExcess
	}
	return a.mean < b.mean-1e-12
}

// acceptable reports whether a configuration with these stats may be
// returned as a result under opts.
func acceptable(st Stats, opts *SearchOptions) bool {
	if opts.RequireFeasible {
		return st.Feasible()
	}
	return true
}

// betterResult orders acceptable results: unserved, cap excess (only under
// RequireFeasible both are zero), then mean cost.
func betterResult(a, b Stats) bool {
	return objOf(a).better(objOf(b))
}

// searcher is one search run's state.
type searcher struct {
	in   *Instance
	d    *DeltaEval
	opts SearchOptions
	rng  *rand.Rand

	best     SiteSet
	bestStat Stats
	haveBest bool

	// guideBest tracks the best configuration by guidance objective
	// regardless of acceptability — the perturbation restart point while no
	// acceptable configuration has been seen yet.
	guideBest     SiteSet
	guideBestObj  guideObj
	haveGuideBest bool

	// full is true when the candidate pools cover every site each round —
	// the exhaustive-neighborhood regime for ≤64-site instances.
	full bool

	// regret scoring scratch.
	score   []float64
	touched []int

	candAdd, candDrop []int

	// dropScratch holds the load-sorted open-site list reused by coverage
	// repair.
	dropScratch []int

	budget int64
	evals  int
	moves  int
	shakes int
}

// Search runs the anytime link-guided local search. The instance may have
// any number of sites. Deterministic for fixed options when Stop is nil.
func Search(in *Instance, opts SearchOptions) (Result, error) {
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	d := NewDeltaEval(in, NewSiteSet(in.NumSites))
	return searchWith(d, opts, 0)
}

// searchWith runs the search on a pre-built evaluator (the warm-restart
// entry point). patched is carried into the Result.
func searchWith(d *DeltaEval, opts SearchOptions, patched int) (Result, error) {
	in := d.in
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.MaxWork <= 0 {
		opts.MaxWork = DefaultSearchWork
	}
	if opts.CandidateWidth <= 0 {
		opts.CandidateWidth = 12
	}
	if opts.Patience <= 0 {
		opts.Patience = 8
	}
	if opts.PerturbFrac <= 0 {
		opts.PerturbFrac = 0.25
	}
	usable := in.NumSites
	if opts.Forbidden.Cap() > 0 {
		forbiddenCount := 0
		opts.Forbidden.ForEach(func(s int) {
			if s < in.NumSites {
				forbiddenCount++
			}
		})
		usable -= forbiddenCount
	}
	if usable <= 0 {
		return Result{}, fmt.Errorf("splpo: every site is forbidden")
	}
	if opts.ExactSize < 0 || opts.ExactSize > usable {
		return Result{}, fmt.Errorf("splpo: exact size %d out of range (usable sites: %d)", opts.ExactSize, usable)
	}

	s := &searcher{
		in:        in,
		d:         d,
		opts:      opts,
		rng:       rand.New(rand.NewSource(opts.Seed)),
		best:      NewSiteSet(in.NumSites),
		guideBest: NewSiteSet(in.NumSites),
		full:      in.NumSites <= 64,
		score:     make([]float64, in.NumSites),
		touched:   make([]int, 0, in.NumSites),
		budget:    d.Work() + opts.MaxWork,
	}

	initial := s.buildInitial()
	d.Reset(initial)
	d.Commit()
	s.noteBest()

	patience := 0
	for !s.exhausted() {
		if s.opts.StopAtFirstAcceptable && s.haveBest {
			break
		}
		if s.round() {
			patience = 0
			s.noteBest()
			continue
		}
		patience++
		if patience >= s.opts.Patience {
			s.perturb()
			s.noteBest()
			patience = 0
		}
	}

	if !s.haveBest {
		return Result{}, fmt.Errorf("splpo: no acceptable configuration found within budget%s", feasHint(opts))
	}
	exact := in.EvaluateSet(s.best, nil)
	return Result{
		Open:          s.best,
		Stats:         exact,
		MeanCost:      exact.MeanCost(),
		Feasible:      exact.Feasible(),
		Work:          d.Work(),
		Evals:         s.evals,
		Moves:         s.moves,
		Perturbations: s.shakes,
		Patched:       patched,
	}, nil
}

func feasHint(opts SearchOptions) string {
	if opts.RequireFeasible {
		return " (RequireFeasible: no feasible configuration seen)"
	}
	return ""
}

// exhausted reports whether any budget has run out.
func (s *searcher) exhausted() bool {
	if s.d.Work() >= s.budget {
		return true
	}
	if s.opts.MaxMoves > 0 && s.moves >= s.opts.MaxMoves {
		return true
	}
	return s.opts.Stop != nil && s.opts.Stop()
}

// allowed reports whether site may be opened.
func (s *searcher) allowed(site int) bool {
	return !(s.opts.Forbidden.Cap() > 0 && s.opts.Forbidden.Has(site))
}

// buildInitial constructs the starting configuration: the caller's Initial
// when given, otherwise a greedy static-cost seed (ExactSize) or everything
// allowed (free size). Parallel restarts 1+ randomize instead.
func (s *searcher) buildInitial() SiteSet {
	init := NewSiteSet(s.in.NumSites)
	if s.opts.Initial.Cap() > 0 && !s.opts.Initial.Empty() {
		s.opts.Initial.ForEach(func(site int) {
			if site < s.in.NumSites && s.allowed(site) {
				init.Add(site)
			}
		})
		if !init.Empty() && (s.opts.ExactSize == 0 || init.Count() == s.opts.ExactSize) {
			return init
		}
		init.Clear()
	}
	k := s.opts.ExactSize
	if k == 0 {
		if s.opts.restart%2 == 0 {
			// Open everything allowed: maximal coverage, drops refine.
			for site := 0; site < s.in.NumSites; site++ {
				if s.allowed(site) {
					init.Add(site)
				}
			}
			return init
		}
		// Odd restarts start from a random half for diversity.
		for site := 0; site < s.in.NumSites; site++ {
			if s.allowed(site) && s.rng.Intn(2) == 0 {
				init.Add(site)
			}
		}
		if init.Empty() {
			for site := 0; site < s.in.NumSites; site++ {
				if s.allowed(site) {
					init.Add(site)
					break
				}
			}
		}
		return init
	}
	// ExactSize: greedy by static mean rank cost (restart 0), random
	// k-subsets afterwards.
	type siteScore struct {
		site int
		mean float64
	}
	var scores []siteScore
	if s.opts.restart == 0 {
		sums := make([]float64, s.in.NumSites)
		counts := make([]int, s.in.NumSites)
		for i := range s.in.Clients {
			c := &s.in.Clients[i]
			for p, site := range c.Ranking {
				sums[site] += c.RankCost[p]
				counts[site]++
			}
		}
		for site := 0; site < s.in.NumSites; site++ {
			if !s.allowed(site) {
				continue
			}
			m := Infinity
			if counts[site] > 0 {
				m = sums[site] / float64(counts[site])
			}
			scores = append(scores, siteScore{site, m})
		}
		sort.Slice(scores, func(i, j int) bool {
			if scores[i].mean != scores[j].mean {
				return scores[i].mean < scores[j].mean
			}
			return scores[i].site < scores[j].site
		})
		for _, sc := range scores[:k] {
			init.Add(sc.site)
		}
		return init
	}
	allowedSites := make([]int, 0, s.in.NumSites)
	for site := 0; site < s.in.NumSites; site++ {
		if s.allowed(site) {
			allowedSites = append(allowedSites, site)
		}
	}
	s.rng.Shuffle(len(allowedSites), func(i, j int) {
		allowedSites[i], allowedSites[j] = allowedSites[j], allowedSites[i]
	})
	for _, site := range allowedSites[:k] {
		init.Add(site)
	}
	return init
}

// noteBest records the current configuration if it beats the best so far —
// both the acceptable best (the result) and the guidance best (the
// perturbation restart point while nothing acceptable has been seen).
func (s *searcher) noteBest() {
	st := s.d.Stats()
	if st.Open == 0 {
		return
	}
	if s.opts.ExactSize > 0 && st.Open != s.opts.ExactSize {
		return
	}
	o := objOf(st)
	if !s.haveGuideBest || o.better(s.guideBestObj) {
		s.guideBest.CopyFrom(s.d.OpenSet())
		s.guideBestObj = o
		s.haveGuideBest = true
	}
	if !acceptable(st, &s.opts) {
		return
	}
	if !s.haveBest || betterResult(st, s.bestStat) {
		s.best.CopyFrom(s.d.OpenSet())
		s.bestStat = st
		s.haveBest = true
	}
}

// gatherCandidates fills candAdd/candDrop for this round. In the full
// regime every allowed closed site is an add candidate and every open site
// a drop candidate. At guided scale, add candidates are the top closed
// sites by aggregate client regret (sampled from the highest-cost served
// clients plus the unserved), and drop candidates are a deterministic
// sample of open sites.
func (s *searcher) gatherCandidates() {
	s.candAdd = s.candAdd[:0]
	s.candDrop = s.candDrop[:0]
	open := s.d.OpenSet()
	if s.full {
		for site := 0; site < s.in.NumSites; site++ {
			if open.Has(site) {
				s.candDrop = append(s.candDrop, site)
			} else if s.allowed(site) {
				s.candAdd = append(s.candAdd, site)
			}
		}
		return
	}

	st := s.d.Stats()

	// Regret pass: sample clients, credit every allowed closed site ranked
	// above the client's current assignment with the (weighted) gain it
	// would hand that client.
	for i := range s.score {
		s.score[i] = 0
	}
	s.touched = s.touched[:0]
	samples := s.opts.CandidateWidth * 24
	n := len(s.in.Clients)
	if samples > n {
		samples = n
	}
	for i := 0; i < samples; i++ {
		c := s.rng.Intn(n)
		cl := &s.in.Clients[c]
		cur := s.d.AssignedPos(c)
		limit := cur
		var curCost float64
		if cur < 0 {
			limit = len(cl.Ranking)
			curCost = 10 * unservedBonus
		} else {
			curCost = cl.RankCost[cur]
		}
		w := cl.weight()
		for p := 0; p < limit; p++ {
			site := cl.Ranking[p]
			if !s.allowed(site) {
				continue
			}
			if s.score[site] == 0 {
				s.touched = append(s.touched, site)
			}
			gain := w * (curCost - cl.RankCost[p])
			if cur < 0 {
				gain = w * unservedBonus
			}
			s.score[site] += gain
		}
	}
	// Coverage pass: while any client is unserved, walk them all and credit
	// their allowed ranked sites directly. Random sampling alone misses the
	// last few unserved clients with high probability, which stalls the
	// march to feasibility.
	if st.Unserved > 0 {
		for c := range s.in.Clients {
			if s.d.AssignedPos(c) >= 0 {
				continue
			}
			cl := &s.in.Clients[c]
			w := cl.weight()
			for _, site := range cl.Ranking {
				if !s.allowed(site) {
					continue
				}
				if s.score[site] == 0 {
					s.touched = append(s.touched, site)
				}
				s.score[site] += w * unservedBonus
			}
		}
	}

	// Top-W touched sites by score, ties by site index.
	sort.Slice(s.touched, func(i, j int) bool {
		si, sj := s.touched[i], s.touched[j]
		if s.score[si] != s.score[sj] {
			return s.score[si] > s.score[sj]
		}
		return si < sj
	})
	for _, site := range s.touched {
		if len(s.candAdd) >= s.opts.CandidateWidth {
			break
		}
		s.candAdd = append(s.candAdd, site)
	}

	// Drop candidates: while capacity is violated, the most overloaded open
	// sites — closing them is the only lever that sheds excess. Otherwise a
	// seeded sample of open sites.
	openSites := s.touched[:0] // reuse storage; touched is dead until next round
	open.ForEach(func(site int) { openSites = append(openSites, site) })
	w := s.opts.CandidateWidth
	if w > len(openSites) {
		w = len(openSites)
	}
	if s.in.Cap != nil && st.CapExcess > 0 {
		sort.Slice(openSites, func(i, j int) bool {
			ei := s.d.SiteLoad(openSites[i]) - s.in.Cap[openSites[i]]
			ej := s.d.SiteLoad(openSites[j]) - s.in.Cap[openSites[j]]
			if ei != ej {
				return ei > ej
			}
			return openSites[i] < openSites[j]
		})
	} else if st.Unserved > 0 {
		// Coverage incomplete: lightest-loaded open sites first — dropping a
		// site that serves little load rarely strands anyone, so swaps that
		// open a coverage site succeed on the first pairings.
		sort.Slice(openSites, func(i, j int) bool {
			li, lj := s.d.SiteLoad(openSites[i]), s.d.SiteLoad(openSites[j])
			if li != lj {
				return li < lj
			}
			return openSites[i] < openSites[j]
		})
	} else {
		s.rng.Shuffle(len(openSites), func(i, j int) {
			openSites[i], openSites[j] = openSites[j], openSites[i]
		})
	}
	s.candDrop = append(s.candDrop, openSites[:w]...)
	sort.Ints(s.candDrop)
	s.touched = s.touched[:0]
}

// unservedBonus is the per-weight guidance credit for newly serving an
// unserved client — far above any real cost so coverage dominates.
const unservedBonus = Infinity / (1 << 32)

// round evaluates the candidate neighborhood and applies improving moves.
// In the full (≤64-site) regime it is classic best-improvement over the
// complete add/drop/swap neighborhood; at guided scale it is
// first-improvement — every improving candidate is kept as the scan goes,
// so one round can accept many moves and excess-shedding converges in few
// rounds. Reports whether any move was accepted.
func (s *searcher) round() bool {
	s.gatherCandidates()
	if s.full {
		return s.roundBest()
	}
	return s.roundFirst()
}

// tryEval applies (drop, add) against the current state and reports the
// resulting guidance objective; ok is false when the move was a no-op or
// produced an empty set. The move is left applied; the caller rolls back to
// mark to discard it.
func (s *searcher) tryEval(mark, drop, add int) (o guideObj, ok bool) {
	if drop >= 0 && !s.d.Close(drop) {
		return o, false
	}
	if add >= 0 && !s.d.Open(add) {
		s.d.RollbackTo(mark)
		return o, false
	}
	s.evals++
	st := s.d.Stats()
	if st.Open == 0 {
		return o, false
	}
	return objOf(st), true
}

// roundBest: best-improvement over the full neighborhood (small instances).
func (s *searcher) roundBest() bool {
	bestObj := objOf(s.d.Stats())
	bestDrop, bestAdd := -1, -1
	found := false
	try := func(drop, add int) {
		if s.exhausted() {
			return
		}
		mark := s.d.Mark()
		if o, ok := s.tryEval(mark, drop, add); ok && o.better(bestObj) {
			bestObj, bestDrop, bestAdd, found = o, drop, add, true
		}
		s.d.RollbackTo(mark)
	}
	if s.opts.ExactSize == 0 {
		for _, add := range s.candAdd {
			try(-1, add)
		}
		for _, drop := range s.candDrop {
			try(drop, -1)
		}
	}
	for _, drop := range s.candDrop {
		for _, add := range s.candAdd {
			try(drop, add)
		}
	}
	if !found {
		return false
	}
	if bestDrop >= 0 {
		s.d.Close(bestDrop)
	}
	if bestAdd >= 0 {
		s.d.Open(bestAdd)
	}
	s.d.Commit()
	s.moves++
	return true
}

// repairCoverage targets unserved clients directly: open one of their
// ranked sites and, under ExactSize, pair it with the lightest-loaded
// droppable open site. Generic candidate sampling finds well-scoring sites
// but pairs them with too few drops to guarantee the march to full
// coverage; this pass mirrors the exhaustive scan a naive solver would do,
// ordered so the cheap pairings come first, and bails per-add after a
// bounded number of failed drops.
func (s *searcher) repairCoverage(cur *guideObj) bool {
	accepted := false
	maxDrops := s.opts.CandidateWidth * 2
	for c := 0; c < len(s.in.Clients) && !s.exhausted(); c++ {
		if s.d.AssignedPos(c) >= 0 {
			continue
		}
		cl := &s.in.Clients[c]
		repaired := false
		for _, add := range cl.Ranking {
			if repaired || s.exhausted() {
				break
			}
			if !s.allowed(add) || s.d.OpenSet().Has(add) {
				continue
			}
			if s.opts.ExactSize == 0 {
				mark := s.d.Mark()
				if o, ok := s.tryEval(mark, -1, add); ok && o.better(*cur) {
					s.d.Commit()
					s.moves++
					*cur = o
					accepted, repaired = true, true
				} else {
					s.d.RollbackTo(mark)
				}
				continue
			}
			// ExactSize: scan drops lightest-load-first until one frees a
			// slot without stranding anyone this swap can't win back.
			drops := s.d.OpenSet().AppendSites(s.dropScratch[:0])
			s.dropScratch = drops
			sort.Slice(drops, func(i, j int) bool {
				li, lj := s.d.SiteLoad(drops[i]), s.d.SiteLoad(drops[j])
				if li != lj {
					return li < lj
				}
				return drops[i] < drops[j]
			})
			if len(drops) > maxDrops {
				drops = drops[:maxDrops]
			}
			for _, drop := range drops {
				if s.exhausted() {
					break
				}
				mark := s.d.Mark()
				if o, ok := s.tryEval(mark, drop, add); ok && o.better(*cur) {
					s.d.Commit()
					s.moves++
					*cur = o
					accepted, repaired = true, true
					break
				}
				s.d.RollbackTo(mark)
			}
		}
	}
	return accepted
}

// roundFirst: first-improvement at guided scale — keep every improving
// candidate move immediately, re-evaluating later candidates against the
// updated state.
func (s *searcher) roundFirst() bool {
	cur := objOf(s.d.Stats())
	accepted := false
	if cur.unserved > 0 {
		accepted = s.repairCoverage(&cur)
	}
	try := func(drop, add int) {
		if s.exhausted() {
			return
		}
		mark := s.d.Mark()
		o, ok := s.tryEval(mark, drop, add)
		if ok && o.better(cur) {
			s.d.Commit()
			s.moves++
			cur = o
			accepted = true
			return
		}
		s.d.RollbackTo(mark)
	}
	if s.opts.ExactSize == 0 {
		for _, add := range s.candAdd {
			try(-1, add)
		}
		for _, drop := range s.candDrop {
			try(drop, -1)
		}
	}
	// Swaps: capped pairings of the top candidates.
	maxPairs := s.opts.CandidateWidth * 4
	pairs := 0
	for _, drop := range s.candDrop {
		for _, add := range s.candAdd {
			if pairs >= maxPairs {
				return accepted
			}
			pairs++
			try(drop, add)
		}
	}
	return accepted
}

// perturb jumps out of a plateau: restart from the best configuration, then
// churn a seeded fraction of it (swaps under ExactSize, mixed add/drop
// otherwise). The jump itself is committed — rollback history ends here.
func (s *searcher) perturb() {
	s.shakes++
	if s.haveBest {
		s.d.Reset(s.best)
	} else if s.haveGuideBest {
		s.d.Reset(s.guideBest)
	}
	openCount := s.d.OpenCount()
	strength := int(s.opts.PerturbFrac * float64(openCount))
	if strength < 1 {
		strength = 1
	}
	for i := 0; i < strength; i++ {
		openSites := s.d.OpenSet().Sites()
		if len(openSites) == 0 {
			break
		}
		drop := openSites[s.rng.Intn(len(openSites))]
		// Pick a random allowed closed site.
		add := -1
		for attempt := 0; attempt < 8; attempt++ {
			site := s.rng.Intn(s.in.NumSites)
			if s.allowed(site) && !s.d.OpenSet().Has(site) {
				add = site
				break
			}
		}
		if s.opts.ExactSize > 0 {
			if add < 0 {
				continue
			}
			s.d.Close(drop)
			s.d.Open(add)
		} else {
			switch s.rng.Intn(3) {
			case 0:
				if s.d.OpenCount() > 1 {
					s.d.Close(drop)
				}
			case 1:
				if add >= 0 {
					s.d.Open(add)
				}
			default:
				if add >= 0 && s.d.OpenCount() > 0 {
					s.d.Close(drop)
					s.d.Open(add)
				}
			}
		}
	}
	s.d.Commit()
}

// SearchParallel runs `restarts` independent searches with diversified
// seeds and initial configurations, fanned across the executor pool, and
// merges them deterministically: the best result wins by (unserved, cap
// excess, mean cost), ties broken by the lexicographically smallest site
// set — so the outcome is identical at any worker count. A nil pool runs
// serially. MaxWork is split evenly across restarts.
func SearchParallel(in *Instance, opts SearchOptions, restarts int, pool *exec.Pool) (Result, error) {
	if restarts <= 0 {
		restarts = 1
	}
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	if opts.MaxWork <= 0 {
		opts.MaxWork = DefaultSearchWork
	}
	perRun := opts.MaxWork / int64(restarts)
	if perRun < 1 {
		perRun = 1
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	results := make([]Result, restarts)
	errs := make([]error, restarts)
	run := func(i int) {
		o := opts
		o.restart = i
		o.Seed = opts.Seed + int64(i)*0x9E3779B9
		o.MaxWork = perRun
		if i > 0 {
			o.Initial = SiteSet{}
		}
		d := NewDeltaEval(in, NewSiteSet(in.NumSites))
		results[i], errs[i] = searchWith(d, o, 0)
	}
	if pool != nil {
		pool.ForEach(restarts, run)
	} else {
		for i := 0; i < restarts; i++ {
			run(i)
		}
	}
	bestIdx := -1
	var firstErr error
	for i := range results {
		if errs[i] != nil {
			if firstErr == nil {
				firstErr = errs[i]
			}
			continue
		}
		if bestIdx < 0 {
			bestIdx = i
			continue
		}
		a, b := results[i], results[bestIdx]
		if betterResult(a.Stats, b.Stats) ||
			(!betterResult(b.Stats, a.Stats) && a.Open.Less(b.Open)) {
			bestIdx = i
		}
	}
	if bestIdx < 0 {
		return Result{}, firstErr
	}
	merged := results[bestIdx]
	for i := range results {
		if i == bestIdx || errs[i] != nil {
			continue
		}
		merged.Work += results[i].Work
		merged.Evals += results[i].Evals
		merged.Moves += results[i].Moves
		merged.Perturbations += results[i].Perturbations
	}
	return merged, nil
}

// Warm is the warm-restart re-optimization handle: it retains the
// incremental evaluator and the best-known configuration across campaign
// snapshots, keyed by the owner's snapshot generation counter. When the
// preference matrix churns (a new snapshot generation with a known set of
// changed clients), Reoptimize patches the inverted index for exactly those
// clients and resumes the search from the previous optimum instead of
// re-solving from scratch.
//
// A Warm is not safe for concurrent use; callers serialize (the API's
// writer path does).
type Warm struct {
	in       *Instance
	gen      uint64
	d        *DeltaEval
	best     SiteSet
	haveBest bool
}

// NewWarm validates the instance and builds a cold handle at generation gen.
func NewWarm(in *Instance, gen uint64) (*Warm, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return &Warm{in: in, gen: gen}, nil
}

// Gen returns the generation the handle is synchronized to.
func (w *Warm) Gen() uint64 { return w.gen }

// Best returns the best configuration from the last solve, if any.
func (w *Warm) Best() (SiteSet, bool) { return w.best, w.haveBest }

// Solve runs the anytime search on the current instance, warm-starting from
// the previous best when one exists, and caches the winner.
func (w *Warm) Solve(opts SearchOptions) (Result, error) {
	if w.d == nil {
		w.d = NewDeltaEval(w.in, NewSiteSet(w.in.NumSites))
	}
	if w.haveBest && (opts.Initial.Cap() == 0 || opts.Initial.Empty()) {
		opts.Initial = w.best
	}
	res, err := searchWith(w.d, opts, 0)
	if err == nil {
		w.best = res.Open.Clone()
		w.haveBest = true
	}
	return res, err
}

// Reoptimize re-optimizes after churn. newIn is the instance rebuilt from
// the new snapshot generation; changed lists the client rows whose ranking,
// costs, load, or weight differ from the previous generation (duplicates
// tolerated). When gen equals the handle's generation the call degenerates
// to Solve (continue refining). When the shape changed (site or client
// count, capacitation), the handle falls back to a cold rebuild — the
// result is the same, only the work is not incremental.
func (w *Warm) Reoptimize(newIn *Instance, gen uint64, changed []int, opts SearchOptions) (Result, error) {
	if gen == w.gen {
		return w.Solve(opts)
	}
	if err := newIn.Validate(); err != nil {
		return Result{}, err
	}
	patched := 0
	if w.d != nil {
		uniq := dedupClients(changed)
		if w.d.Patch(newIn, uniq) {
			patched = len(uniq)
		} else {
			w.d = nil
		}
	}
	w.in, w.gen = newIn, gen
	if w.d == nil {
		w.d = NewDeltaEval(newIn, NewSiteSet(newIn.NumSites))
	}
	if w.haveBest && (opts.Initial.Cap() == 0 || opts.Initial.Empty()) {
		opts.Initial = w.best
	}
	res, err := searchWith(w.d, opts, patched)
	if err == nil {
		w.best = res.Open.Clone()
		w.haveBest = true
	}
	return res, err
}

// dedupClients returns changed with duplicates removed, sorted ascending.
func dedupClients(changed []int) []int {
	out := append([]int(nil), changed...)
	sort.Ints(out)
	n := 0
	for i, c := range out {
		if i == 0 || c != out[i-1] {
			out[n] = c
			n++
		}
	}
	return out[:n]
}
