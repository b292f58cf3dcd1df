package splpo

// The lower bound Exhaustive prunes with (DESIGN.md §12).
//
// A client served by subset S pays w·RankCost[p] for the first open site p of
// its ranking. Clients that share a ranking prefix are served at the same
// position by every S that opens a site of that prefix, so the bound is a
// tree over the clients' ranking prefixes, cut at boundDepth: a node holds
// Σ w·cost at its depth over the clients below it, and a deepest node also
// holds Σ w·(the least cost past boundDepth) over the clients below it.
// Walking the tree for S adds an open node's sum and skips its subtree,
// descends through a closed node, and adds a closed deepest node's tail.
// Every served client is counted once, at its exact cost or, past
// boundDepth, at a cost no larger, so in exact arithmetic the walk's total L
// is at most S's total cost T. A subset with an unserved client has mean
// Infinity and loses to any incumbent whatever the walk returns.
//
// Floating point. Let u = 2⁻⁵³, n the number of clients and V the number of
// nodes. Every weight and cost is finite and either zero or in
// [2⁻²⁵⁶, 2²⁵⁶] (newLowerBound checks), so no product, sum or quotient
// below under- or overflows, and each rounding scales a non-negative value
// by a factor in [1−u, 1+u].
//   - The exact kernel rounds each client's term at most n+1 times: once for
//     the product, unless the compiler fuses it into the add, and once per
//     add into FiniteCost. So its sum F ≥ (1−u)^(n+1)·T.
//   - The tree rounds each term at most 1+n+V times: the product (the
//     float64 conversion forbids fusing it), at most n adds into a node and
//     at most V adds in the walk. So its sum B ≤ (1+u)^(n+V+1)·L.
//   - W is the weights summed in client order, the same sum with the same
//     bits as the kernel's Weight when every client is served.
//   - The test computes q = fl(fl(B/W)·fl(1−ε)) ≤ (B/W)·(1−ε)·(1+u)³.
//
// Together, F/W ≥ (1−u)^(n+1)·(1+u)^−(n+V+4)·q/(1−ε) ≥ (1−(2n+V+5)u)·q/(1−ε),
// which is at least q once ε ≥ (2n+V+5)u. Rounding is monotone and the
// incumbent's mean is a float, so q ≥ best then gives fl(F/W) ≥ best: the
// kernel's mean for S would not be strictly below the incumbent's, and S
// could not have replaced it. ε is four times that count, the factor being
// margin rather than part of the argument.

import "slices"

// boundDepth is how far down the clients' rankings the tree follows them. At
// paper scale, depth 6 keeps the tree under a thousand nodes (under 20 KB)
// and still rules out all but a few percent of a 2,000-subset budget.
const boundDepth = 6

// Magnitudes outside [minBoundable, maxBoundable] (zero aside) turn the bound
// off: the rounding argument needs every intermediate value to be normal.
const (
	minBoundable = 0x1p-256
	maxBoundable = 0x1p256
)

// The build sorts clients by one uint64 each: the ranking prefix in the high
// 7·boundDepth bits, 7 bits per position holding site+1 (most significant
// first, so a missing position sorts a prefix before its extensions), and the
// client's index in the low clientBits. Instances with more clients get no
// bound.
const clientBits = 64 - 7*boundDepth

// boundNode is one ranking prefix, in preorder: its children follow it, and
// skip is the index just past its subtree.
type boundNode struct {
	// sum is Σ w·cost over the node's clients of the node's site, at the
	// node's depth: what they pay when that is their first open site.
	sum float64
	// tail is Σ w·(least cost past boundDepth) over a deepest node's
	// clients; zero elsewhere.
	tail float64
	skip int32
	site uint8
}

// lowerBound proves that a subset's mean cost is no better than an
// incumbent's. A nil *lowerBound proves nothing.
type lowerBound struct {
	nodes []boundNode
	// weight is every client's weight summed in client order.
	weight float64
	// shrink is 1 − ε.
	shrink float64
}

// boundable reports whether x is a weight or cost the rounding argument
// covers.
func boundable(x float64) bool {
	return x == 0 || (x >= minBoundable && x <= maxBoundable)
}

// prefix is the part of a ranking the tree follows.
func prefix(ranking []int) []int { return ranking[:min(len(ranking), boundDepth)] }

// shared returns the length of the common head of two prefixes.
func shared(a, b []int) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// newLowerBound builds the bound for in, or returns nil when the instance
// has no clients, more than 2^clientBits of them, or a weight or cost the
// argument does not cover (negative, non-finite or out of range).
func newLowerBound(in *Instance) *lowerBound {
	if len(in.Clients) == 0 || len(in.Clients) >= 1<<clientBits {
		return nil
	}
	var weight float64
	order := make([]uint64, 0, len(in.Clients))
	for i := range in.Clients {
		c := &in.Clients[i]
		w := c.weight()
		if !boundable(w) {
			return nil
		}
		for _, cost := range c.RankCost {
			if !boundable(cost) {
				return nil
			}
		}
		weight += w
		if len(c.Ranking) == 0 {
			continue
		}
		key := uint64(0)
		for d := 0; d < boundDepth; d++ {
			key <<= 7
			if d < len(c.Ranking) {
				key |= uint64(c.Ranking[d] + 1)
			}
		}
		order = append(order, key<<clientBits|uint64(i))
	}
	// Sorted by prefix, the clients below any node are contiguous and follow
	// the node's own.
	slices.Sort(order)
	client := func(key uint64) *Client { return &in.Clients[key&(1<<clientBits-1)] }
	count := 0
	var prev []int
	for _, key := range order {
		pre := prefix(client(key).Ranking)
		count += len(pre) - shared(prev, pre)
		prev = pre
	}
	nodes := make([]boundNode, 0, count)
	var path [boundDepth]int32 // path[d] is the node of the current prefix at depth d
	prev = nil
	for _, key := range order {
		c := client(key)
		pre := prefix(c.Ranking)
		head := shared(prev, pre)
		for d := head; d < len(prev); d++ {
			nodes[path[d]].skip = int32(len(nodes))
		}
		for d := head; d < len(pre); d++ {
			path[d] = int32(len(nodes))
			nodes = append(nodes, boundNode{site: uint8(pre[d])})
		}
		prev = pre
		w := c.weight()
		for d := range pre {
			nodes[path[d]].sum += float64(w * c.RankCost[d])
		}
		if len(c.RankCost) > boundDepth {
			least := c.RankCost[boundDepth]
			for _, cost := range c.RankCost[boundDepth+1:] {
				least = min(least, cost)
			}
			nodes[path[boundDepth-1]].tail += float64(w * least)
		}
	}
	for d := range prev {
		nodes[path[d]].skip = int32(len(nodes))
	}
	eps := 4 * float64(2*len(in.Clients)+len(nodes)+5) * 0x1p-53
	return &lowerBound{nodes: nodes, weight: weight, shrink: 1 - eps}
}

// rulesOut reports whether the subset open provably has a mean cost no
// better than best, the incumbent's.
func (lb *lowerBound) rulesOut(open uint64, best float64) bool {
	if lb == nil {
		return false
	}
	sum := 0.0
	for i := 0; i < len(lb.nodes); {
		nd := &lb.nodes[i]
		if open>>nd.site&1 != 0 {
			sum += nd.sum
			i = int(nd.skip)
		} else {
			sum += nd.tail
			i++
		}
	}
	return sum/lb.weight*lb.shrink >= best
}
