package splpo

// Solve: the exact solver past enumeration, a depth-first branch-and-bound
// that decides one site per node and prices every complete subset with the
// kernel Exhaustive uses (DESIGN.md §12 has the argument). At a node with
// open set O, client c's first open site is at ranking position f, and any
// completion serves c at or before f:
//   (a) so c pays at least lb, its least non-closed cost up to and including
//       f (not its cost with every undecided site open: opening a site ahead
//       of a cheap one raises the cost);
//   (b) with r sites still to open, only the earliest added site ahead of f
//       can change c's cost, so the total is at least P, Σ w·cur (Σ w·lb for
//       a client O does not serve), less the r largest summed gains
//       gain(t) = Σ w·(cur − cost at t)⁺.
// The bounds are exact integer sums kept as sites open and close, each cost
// rounded down and each gain up, and a node is cut only when a bound, shrunk
// by ε for the kernel's rounding, is strictly above the incumbent's mean.
// Subsets compare by (mean, word), Exhaustive's order, so the answer is
// Exhaustive's in whatever order the search meets subsets.

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Solve returns the assignment Exhaustive returns for the same options,
// without enumerating: the least kernel mean, ties going to the smaller
// subset word. MaxSubsets is Exhaustive's budget and Solve ignores it. It
// also returns how many subsets the kernel priced, and whether the answer is
// proven optimal.
//
// stop, when non-nil, is polled at every search node once an incumbent
// exists; returning true ends the search with that incumbent and proven
// false. This is the wall-clock deadline hook: splpo never reads the clock.
func Solve(in *Instance, opts Options, stop func() bool) (best Assignment, evaluated int, proven bool, err error) {
	best, evaluated, _, proven, err = solve(in, opts, stop)
	return best, evaluated, proven, err
}

// solve is Solve that also reports how many search nodes it visited.
func solve(in *Instance, opts Options, stop func() bool) (best Assignment, evaluated, nodes int, proven bool, err error) {
	if err := in.Validate(); err != nil {
		return Assignment{}, 0, 0, false, err
	}
	b := newSearch(in, opts, stop)
	allowed := ^b.closed & (1<<uint(in.NumSites) - 1)
	if len(in.Clients) > 0 && b.size <= bits.OnesCount64(allowed) {
		b.node(allowed)
	}
	if b.bestOpen == 0 {
		return Assignment{TotalCost: Infinity, MeanCost: Infinity}, b.evaluated, b.nodes, !b.stopped, fmt.Errorf("splpo: no acceptable subset found")
	}
	return in.assign(siteSetOfWord(in.NumSites, b.bestOpen)), b.evaluated, b.nodes, !b.stopped, nil
}

// search is one Solve call's state.
type search struct {
	in              *Instance
	size            int // ExactSize; 0 = any size
	requireFeasible bool
	stop            func() bool
	stopped         bool

	// prune is whether bounds may cut: every weight and cost is one the
	// rounding argument covers. weight is every client weight summed in
	// client order, shrink is 1 − ε, and the integer sums count units of
	// 1/unit, a power of two.
	prune                bool
	weight, shrink, unit float64

	// open and closed are the decided sites on the current path, forbidden
	// the ones closed from the start, and idle the sites whose cap admits an
	// open site with no load.
	open, closed, forbidden, idle uint64

	// Per client: its first open ranking position (its ranking's length when
	// none is open) and the position of its least non-closed cost up to and
	// including there (noPos when every ranked site is closed).
	// pos[s·clients+c] is site s's position in client c's ranking.
	first, least, pos []uint8

	// The node's bounds: lower is bound (a), served is (b)'s P, gain each
	// site's gain and ahead each site's count of clients ranking it ahead of
	// their first open site (any ranked site, for a client not yet served).
	// unserved clients have no site open, and stranded ones none left.
	lower, served      int64
	gain               []int64
	ahead              []int32
	unserved, stranded int

	undo     []undoEntry
	top      []int64   // bound (b)'s sort scratch
	cover    []float64 // branching scratch while clients are unserved
	siteLoad []float64 // the kernel's scratch

	bestMean         float64
	bestOpen         uint64
	evaluated, nodes int
}

// undoEntry is one client's state before a site opened or closed.
type undoEntry struct {
	client       int32
	first, least uint8
}

// noPos marks an absent ranking position.
const noPos = 0xff

func newSearch(in *Instance, opts Options, stop func() bool) *search {
	n, clients := in.NumSites, len(in.Clients)
	full := uint64(1)<<uint(n) - 1
	ranked := 0
	for i := range in.Clients {
		ranked += len(in.Clients[i].Ranking)
	}
	bytes := make([]uint8, (n+2)*clients)
	ints := make([]int64, 2*n)
	floats := make([]float64, 2*n)
	b := &search{
		in:              in,
		size:            opts.ExactSize,
		requireFeasible: opts.RequireFeasible,
		stop:            stop,
		closed:          opts.Forbidden.word() & full,
		forbidden:       opts.Forbidden.word() & full,
		idle:            full,
		first:           bytes[:clients],
		least:           bytes[clients : 2*clients],
		pos:             bytes[2*clients:],
		gain:            ints[:n],
		top:             ints[n:n],
		ahead:           make([]int32, n),
		undo:            make([]undoEntry, 0, ranked),
		cover:           floats[:n],
		siteLoad:        floats[n:],
		bestMean:        Infinity,
	}
	for site, limit := range in.Cap {
		if limit < 0 {
			b.idle &^= 1 << uint(site)
		}
	}
	b.initBound()
	for i := range b.pos {
		b.pos[i] = noPos
	}
	for i := range in.Clients {
		c := &in.Clients[i]
		b.first[i] = uint8(len(c.Ranking))
		for p, site := range c.Ranking {
			b.pos[site*clients+i] = uint8(p)
		}
		b.least[i] = b.leastPos(c, len(c.Ranking))
		b.account(i, 1)
	}
	return b
}

// initBound turns pruning on when every weight and cost is one the rounding
// argument covers: it sums the weights, sets ε and picks the largest scale at
// which no integer sum can overflow.
func (b *search) initBound() {
	total := 0.0 // Σ over clients of their largest weighted cost
	for i := range b.in.Clients {
		c := &b.in.Clients[i]
		w := c.weight()
		if !boundable(w) {
			return
		}
		most := 0.0
		for _, cost := range c.RankCost {
			if !boundable(cost) {
				return
			}
			most = max(most, w*cost)
		}
		b.weight += w
		total += most
	}
	// A site's gain is at most total and bound (b) sums at most 63 of them,
	// so total below 2^55 keeps every sum inside an int64.
	_, exp := math.Frexp(total)
	b.unit = math.Ldexp(1, 55-exp)
	b.prune, b.shrink = true, 1-4*float64(len(b.in.Clients)+5)*0x1p-53
}

// down and up are integer multiples of 1/unit just below and just above
// w·cost: the 2⁻⁵⁰ margin outweighs the product's rounding.
func (b *search) down(w, cost float64) int64 {
	return int64(float64(w*cost) * (1 - 0x1p-50) * b.unit)
}

func (b *search) up(w, cost float64) int64 {
	return int64(float64(w*cost)*(1+0x1p-50)*b.unit) + 1
}

// leastPos returns the position of c's least cost among its non-closed
// ranking positions before end, and end itself when it is a position.
func (b *search) leastPos(c *Client, end int) uint8 {
	least := noPos
	if end < len(c.Ranking) {
		least = end
	}
	for p, s := range c.Ranking[:end] {
		if b.closed>>uint(s)&1 == 0 && (least == noPos || c.RankCost[p] < c.RankCost[least]) {
			least = p
		}
	}
	return uint8(least)
}

// account adds (sign 1) or removes (sign −1) client i's share of the bounds
// in its current state.
func (b *search) account(i int, sign int64) {
	c := &b.in.Clients[i]
	w, f, least := c.weight(), int(b.first[i]), int(b.least[i])
	if least == noPos {
		b.stranded += int(sign)
		return
	}
	lb := b.down(w, c.RankCost[least])
	b.lower += sign * lb
	if f == len(c.Ranking) {
		b.unserved += int(sign)
		b.served += sign * lb
		for _, s := range c.Ranking {
			b.ahead[s] += int32(sign)
		}
		return
	}
	b.served += sign * b.down(w, c.RankCost[f])
	cur := b.up(w, c.RankCost[f])
	for p, s := range c.Ranking[:f] {
		b.ahead[s] += int32(sign)
		if g := cur - b.down(w, c.RankCost[p]); g > 0 {
			b.gain[s] += sign * g
		}
	}
}

// decide opens or closes site, searches below and undoes the decision. Only
// the clients ranking site ahead of their first open site change: opening it
// moves their first open site there, closing it may raise their least cost.
func (b *search) decide(site int, open bool, undecided uint64) {
	bit := uint64(1) << uint(site)
	if open {
		b.open |= bit
	} else {
		b.closed |= bit
	}
	mark := len(b.undo)
	clients := len(b.first)
	for i, p := range b.pos[site*clients : (site+1)*clients] {
		if p >= b.first[i] || !open && p != b.least[i] {
			continue
		}
		b.undo = append(b.undo, undoEntry{int32(i), b.first[i], b.least[i]})
		b.account(i, -1)
		if open {
			b.first[i] = p
		}
		b.least[i] = b.leastPos(&b.in.Clients[i], int(b.first[i]))
		b.account(i, 1)
	}
	b.node(undecided &^ bit)
	b.open &^= bit
	b.closed &^= bit
	for j := len(b.undo) - 1; j >= mark; j-- {
		e := b.undo[j]
		b.account(int(e.client), -1)
		b.first[e.client], b.least[e.client] = e.first, e.least
		b.account(int(e.client), 1)
	}
	b.undo = b.undo[:mark]
}

// cuts reports whether a bound proves every completion of the node strictly
// worse than the incumbent. remaining is how many sites are still to open
// when the size is fixed.
func (b *search) cuts(undecided uint64, remaining int) bool {
	if !b.prune || b.bestOpen == 0 {
		return false
	}
	bound := b.lower
	if b.size > 0 {
		top := b.top[:0]
		for u := undecided; u != 0; u &= u - 1 {
			top = append(top, b.gain[bits.TrailingZeros64(u)])
		}
		slices.Sort(top)
		gains := int64(0)
		for _, g := range top[len(top)-remaining:] {
			gains += g
		}
		bound = max(bound, b.served-gains)
	}
	return float64(bound)/b.unit/b.weight*b.shrink > b.bestMean
}

// node searches the subtree below the current path, whose undecided sites
// are undecided.
func (b *search) node(undecided uint64) {
	if b.stopped || b.bestOpen != 0 && b.stop != nil && b.stop() {
		b.stopped = true
		return
	}
	b.nodes++
	opens, free := bits.OnesCount64(b.open), bits.OnesCount64(undecided)
	switch {
	case b.size == 0 && free == 0, b.size > 0 && opens == b.size:
		b.leaf(b.open)
		return
	case b.size > 0 && opens+free == b.size:
		b.leaf(b.open | undecided)
		return
	case b.size > 0 && opens+free < b.size, b.stranded > 0, b.cuts(undecided, b.size-opens):
		return
	}
	// A dead site is one no client ranks ahead of its first open site:
	// opening it changes no cost, only the word, which it makes larger. Any
	// size closes it, and a fixed size opens it only while no lower dead
	// site is closed, which would take its place with a smaller word.
	for u := undecided & b.idle; u != 0; u &= u - 1 {
		if s := bits.TrailingZeros64(u); b.ahead[s] == 0 {
			if b.size > 0 && !b.deadBelow(s) {
				b.decide(s, true, undecided)
			}
			b.decide(s, false, undecided)
			return
		}
	}
	// Branch on the site most not-yet-served clients reach first, then on
	// the one with the largest gain; one that serves or improves no client
	// is tried closed first.
	b.coverage()
	site := -1
	for u := undecided; u != 0; u &= u - 1 {
		s := bits.TrailingZeros64(u)
		if site < 0 || b.cover[s] > b.cover[site] || b.cover[s] == b.cover[site] && b.gain[s] > b.gain[site] {
			site = s
		}
	}
	useful := b.cover[site] > 0 || b.gain[site] > 0
	b.decide(site, useful, undecided)
	b.decide(site, !useful, undecided)
}

// deadBelow reports whether a site below site that the search closed is
// dead.
func (b *search) deadBelow(site int) bool {
	for u := b.closed &^ b.forbidden & b.idle & (1<<uint(site) - 1); u != 0; u &= u - 1 {
		if b.ahead[bits.TrailingZeros64(u)] == 0 {
			return true
		}
	}
	return false
}

// coverage fills cover: for each site, the weight of the clients not yet
// served whose first non-closed ranked site it is.
func (b *search) coverage() {
	clear(b.cover)
	if b.unserved == 0 {
		return
	}
	for i := range b.in.Clients {
		c := &b.in.Clients[i]
		if int(b.first[i]) < len(c.Ranking) {
			continue
		}
		for _, s := range c.Ranking {
			if b.closed>>uint(s)&1 == 0 {
				b.cover[s] += c.weight()
				break
			}
		}
	}
}

// leaf prices one complete subset and keeps it if it beats the incumbent.
func (b *search) leaf(open uint64) {
	if open == 0 {
		return
	}
	b.evaluated++
	st := b.in.evaluateWord(open, b.siteLoad)
	if b.requireFeasible && !st.Feasible() {
		return
	}
	if mean := st.MeanCost(); mean < b.bestMean || mean == b.bestMean && b.bestOpen != 0 && open < b.bestOpen {
		b.bestMean, b.bestOpen = mean, open
	}
}
