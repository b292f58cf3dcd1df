// Package prefs stores the outcomes of pairwise preference-discovery
// experiments and constructs per-client total orders from them — the heart
// of AnyOpt's prediction model (§3.3–3.4, §4.2).
//
// For every client network and every unordered pair of items (items are
// anycast sites at the intra-AS level, or transit providers at the inter-AS
// level), two controlled experiments are run: one announcing i before j and
// one announcing j before i. A client that picks the same winner both times
// holds a strict preference; a client whose pick follows the announcement
// order holds equivalent preferences that real routers break by route age
// (the arrival-order tie-breaker of §4.2). "Naive" experiments that announce
// simultaneously collapse this distinction and record whatever won, which is
// why they manufacture cyclic preferences (Figure 4).
//
// The store is columnar (struct-of-arrays): one sorted client-ID column and
// two flat relation columns shared by every client, indexed row-major as
// rels[clientRow*NumPairs+pairIdx]. Point lookups binary-search the client
// column; recording appends in O(1) because campaigns record each experiment
// in target order and targets are sorted by client (discovery reads its
// dense sweeps by target position), so the sorted column grows at the tail. Compared to the former
// map[Client]*ClientPrefs backing, a client row costs 3 bytes per pair
// (1-byte relation + 2-byte winner index) in two contiguous slabs instead of
// a map entry, a heap-allocated struct, and a 16-byte-per-pair slice — the
// layout internet-scale campaigns (100k clients) need to stay in cache and
// under memory ceilings. Campaign builders call Compact once recording ends,
// trimming append-growth slack before the store is published.
package prefs

import (
	"fmt"
	"sort"
)

// Item identifies a comparable alternative: a site ID at the intra-AS level
// or a provider's ASN at the inter-AS level.
type Item int64

// Client identifies a client network (we use its ASN).
type Client int64

// Relation classifies a client's attitude toward an unordered item pair.
type Relation int8

const (
	// RelUnknown means the pair was never compared for this client.
	RelUnknown Relation = iota
	// RelStrict means one item wins regardless of announcement order.
	RelStrict
	// RelEqual means the winner followed the announcement order: the items
	// are equally preferred and route age decides.
	RelEqual
)

func (r Relation) String() string {
	switch r {
	case RelUnknown:
		return "unknown"
	case RelStrict:
		return "strict"
	case RelEqual:
		return "equal"
	default:
		return fmt.Sprintf("relation(%d)", int8(r))
	}
}

// ClientPrefs is a view of one client's row in the store's relation columns.
// Views are positional: a view stays valid across appends of later clients,
// but recording an out-of-order client (which shifts rows) invalidates
// previously obtained views — callers record first, then read.
type ClientPrefs struct {
	store *Store
	idx   int
}

// Store collects pairwise preferences for a fixed item universe, columnar:
// keys is the sorted client-ID column; rels and winIdx are parallel flat
// relation columns of len(keys)*NumPairs() cells each.
type Store struct {
	items  []Item
	index  map[Item]int
	nPairs int
	// keys holds every recorded client, ascending.
	keys []Client
	// rels[row*nPairs+p] is client keys[row]'s relation for pair p.
	rels []Relation
	// winIdx[row*nPairs+p] is the item index of the strict winner; read
	// only when the relation is RelStrict. uint16 bounds the item universe
	// at 65536 — enforced by NewStore, and far beyond any testbed.
	winIdx []uint16
	// views[i] is the ClientPrefs view for row i; views[i].idx == i always,
	// so Get can return a stable pointer without allocating per call.
	views []ClientPrefs
}

// NewStore creates a store over the given items. Items must be distinct.
func NewStore(items []Item) (*Store, error) {
	if len(items) < 1 {
		return nil, fmt.Errorf("prefs: store needs at least one item")
	}
	if len(items) > 1<<16 {
		return nil, fmt.Errorf("prefs: item universe of %d exceeds the %d limit", len(items), 1<<16)
	}
	s := &Store{
		items: append([]Item(nil), items...),
		index: make(map[Item]int, len(items)),
	}
	s.nPairs = len(s.items) * (len(s.items) - 1) / 2
	for i, it := range s.items {
		if _, dup := s.index[it]; dup {
			return nil, fmt.Errorf("prefs: duplicate item %d", it)
		}
		s.index[it] = i
	}
	return s, nil
}

// Items returns the item universe.
func (s *Store) Items() []Item { return append([]Item(nil), s.items...) }

// Clients returns all clients with any recorded preference, ascending.
func (s *Store) Clients() []Client { return append([]Client(nil), s.keys...) }

// NumClients returns the number of recorded clients without copying the
// client column.
func (s *Store) NumClients() int { return len(s.keys) }

// NumPairs returns the number of unordered item pairs.
func (s *Store) NumPairs() int { return s.nPairs }

// pairIdx flattens an unordered index pair (a < b).
func (s *Store) pairIdx(a, b int) int {
	if a > b {
		a, b = b, a
	}
	n := len(s.items)
	return a*(2*n-a-1)/2 + (b - a - 1)
}

// findClient binary-searches the client column; returns (row, true) when c
// is recorded.
func (s *Store) findClient(c Client) (int, bool) {
	i := sort.Search(len(s.keys), func(k int) bool { return s.keys[k] >= c })
	if i < len(s.keys) && s.keys[i] == c {
		return i, true
	}
	return i, false
}

// ensureClient returns c's row, creating it when absent. Appending past the
// current maximum client is O(1) amortized — the campaign's common case;
// an out-of-order insert shifts the columns.
func (s *Store) ensureClient(c Client) int {
	n := len(s.keys)
	if n > 0 && s.keys[n-1] == c {
		return n - 1
	}
	if n == 0 || s.keys[n-1] < c {
		s.keys = append(s.keys, c)
		s.grow()
		return n
	}
	i, ok := s.findClient(c)
	if ok {
		return i
	}
	s.keys = append(s.keys, 0)
	copy(s.keys[i+1:], s.keys[i:])
	s.keys[i] = c
	s.grow()
	base := i * s.nPairs
	copy(s.rels[base+s.nPairs:], s.rels[base:])
	copy(s.winIdx[base+s.nPairs:], s.winIdx[base:])
	for p := 0; p < s.nPairs; p++ {
		s.rels[base+p] = RelUnknown
	}
	return i
}

// grow extends the relation columns and the view table by one row.
func (s *Store) grow() {
	if cap(s.rels) < len(s.rels)+s.nPairs {
		// Grow all columns together so one client append reallocates at
		// most once per column.
		nr := make([]Relation, len(s.rels), (cap(s.rels)+s.nPairs)*2)
		copy(nr, s.rels)
		s.rels = nr
		nw := make([]uint16, len(s.winIdx), (cap(s.winIdx)+s.nPairs)*2)
		copy(nw, s.winIdx)
		s.winIdx = nw
	}
	s.rels = s.rels[:len(s.rels)+s.nPairs]
	s.winIdx = s.winIdx[:len(s.winIdx)+s.nPairs]
	for p := len(s.rels) - s.nPairs; p < len(s.rels); p++ {
		s.rels[p] = RelUnknown
		s.winIdx[p] = 0
	}
	s.views = append(s.views, ClientPrefs{store: s, idx: len(s.views)})
}

// Compact trims the append-growth slack off every column, shrinking the
// store to exactly its recorded rows. Campaign builders call it once after
// bulk recording, before the store is published into an immutable snapshot;
// at internet scale the doubling slack is a third of the store, so trimming
// it is what keeps the measured bytes/client at the columnar floor.
// Recording remains legal afterwards — the next append just reallocates.
func (s *Store) Compact() {
	if cap(s.keys) == len(s.keys) && cap(s.rels) == len(s.rels) &&
		cap(s.winIdx) == len(s.winIdx) && cap(s.views) == len(s.views) {
		return
	}
	s.keys = append(make([]Client, 0, len(s.keys)), s.keys...)
	s.rels = append(make([]Relation, 0, len(s.rels)), s.rels...)
	s.winIdx = append(make([]uint16, 0, len(s.winIdx)), s.winIdx...)
	views := make([]ClientPrefs, len(s.views))
	for i := range views {
		views[i] = ClientPrefs{store: s, idx: i}
	}
	s.views = views
}

// Get returns the per-client view, or nil if the client was never recorded.
func (s *Store) Get(c Client) *ClientPrefs {
	i, ok := s.findClient(c)
	if !ok {
		return nil
	}
	return &s.views[i]
}

// at returns the (relation, winner) cell for the given row and pair index.
func (s *Store) at(row, pair int) (Relation, Item) {
	off := row*s.nPairs + pair
	r := s.rels[off]
	if r != RelStrict {
		return r, 0
	}
	return r, s.items[s.winIdx[off]]
}

// set writes one cell. winner must already be validated as an item index
// holder; pass winnerIdx < 0 for non-strict relations.
func (s *Store) set(row, pair int, rel Relation, winnerIdx int) {
	off := row*s.nPairs + pair
	s.rels[off] = rel
	if winnerIdx >= 0 {
		s.winIdx[off] = uint16(winnerIdx)
	}
}

// RecordOrdered stores the outcome of the two order-controlled experiments
// for pair (i, j): winnerIFirst is the client's catchment when i was
// announced first, winnerJFirst when j was announced first. Winners must be
// i or j.
func (s *Store) RecordOrdered(c Client, i, j Item, winnerIFirst, winnerJFirst Item) error {
	ii, ok := s.index[i]
	if !ok {
		return fmt.Errorf("prefs: unknown item %d", i)
	}
	jj, ok := s.index[j]
	if !ok {
		return fmt.Errorf("prefs: unknown item %d", j)
	}
	if ii == jj {
		return fmt.Errorf("prefs: pair (%d, %d) is degenerate", i, j)
	}
	for _, w := range []Item{winnerIFirst, winnerJFirst} {
		if w != i && w != j {
			return fmt.Errorf("prefs: winner %d not in pair (%d, %d)", w, i, j)
		}
	}
	row := s.ensureClient(c)
	idx := s.pairIdx(ii, jj)
	switch {
	case winnerIFirst == winnerJFirst:
		s.set(row, idx, RelStrict, s.index[winnerIFirst])
	default:
		// The winner flipped with the announcement order (whichever
		// direction): the client is indifferent and route age decides
		// (§4.2: "otherwise ... it has equivalent preferences").
		s.set(row, idx, RelEqual, -1)
	}
	return nil
}

// RecordSimultaneous stores the outcome of a single "naive" experiment that
// announced both items at once: the observed winner is taken as a strict
// preference, because without order control the experimenter cannot tell a
// tie from a genuine preference. This is the baseline mode Figure 4 shows to
// be inconsistent.
func (s *Store) RecordSimultaneous(c Client, i, j, winner Item) error {
	ii, ok := s.index[i]
	if !ok {
		return fmt.Errorf("prefs: unknown item %d", i)
	}
	jj, ok := s.index[j]
	if !ok {
		return fmt.Errorf("prefs: unknown item %d", j)
	}
	if winner != i && winner != j {
		return fmt.Errorf("prefs: winner %d not in pair (%d, %d)", winner, i, j)
	}
	row := s.ensureClient(c)
	s.set(row, s.pairIdx(ii, jj), RelStrict, s.index[winner])
	return nil
}

// Relation returns the recorded relation for pair (i, j) and, for RelStrict,
// the winning item.
func (cp *ClientPrefs) Relation(i, j Item) (Relation, Item) {
	s := cp.store
	ii, ok1 := s.index[i]
	jj, ok2 := s.index[j]
	if !ok1 || !ok2 || ii == jj {
		return RelUnknown, 0
	}
	return s.at(cp.idx, s.pairIdx(ii, jj))
}

// Complete reports whether every pair over the given items has a recorded
// relation.
func (cp *ClientPrefs) Complete(items []Item) bool {
	for a := 0; a < len(items); a++ {
		for b := a + 1; b < len(items); b++ {
			if r, _ := cp.Relation(items[a], items[b]); r == RelUnknown {
				return false
			}
		}
	}
	return true
}

// prefersUnder reports whether x beats y under announcement order annRank
// (lower rank = announced earlier): strict winners win; equal pairs go to
// the earlier-announced item.
func (cp *ClientPrefs) prefersUnder(x, y Item, annRank map[Item]int) (bool, bool) {
	rel, winner := cp.Relation(x, y)
	switch rel {
	case RelStrict:
		return winner == x, true
	case RelEqual:
		rx, okx := annRank[x]
		ry, oky := annRank[y]
		if !okx || !oky {
			return false, false
		}
		return rx < ry, true
	default:
		return false, false
	}
}

// TotalOrder attempts to build the client's total preference order over the
// given items under the given announcement order (earliest first). It
// returns the items most-preferred-first and ok=false when the pairwise
// relations are incomplete or cyclic — the clients the paper excludes from
// prediction (§4.2).
func (cp *ClientPrefs) TotalOrder(announce []Item) ([]Item, bool) {
	n := len(announce)
	if n == 0 {
		return nil, false
	}
	annRank := make(map[Item]int, n)
	for r, it := range announce {
		if _, dup := annRank[it]; dup {
			return nil, false
		}
		annRank[it] = r
	}
	// wins[a][b] = a beats b.
	wins := make([][]bool, n)
	for a := range wins {
		wins[a] = make([]bool, n)
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			ab, ok := cp.prefersUnder(announce[a], announce[b], annRank)
			if !ok {
				return nil, false
			}
			wins[a][b] = ab
			wins[b][a] = !ab
		}
	}
	// A tournament is a total order iff win counts are a permutation of
	// 0..n-1 (no 3-cycles). Sorting by descending win count yields the
	// order; verifying adjacent dominance confirms acyclicity.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	count := make([]int, n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b && wins[a][b] {
				count[a]++
			}
		}
	}
	sort.SliceStable(idx, func(x, y int) bool { return count[idx[x]] > count[idx[y]] })
	for pos := 0; pos < n; pos++ {
		if count[idx[pos]] != n-1-pos {
			return nil, false // tie in win counts ⇒ cycle exists
		}
		for later := pos + 1; later < n; later++ {
			if !wins[idx[pos]][idx[later]] {
				return nil, false
			}
		}
	}
	out := make([]Item, n)
	for pos, i := range idx {
		out[pos] = announce[i]
	}
	return out, true
}

// Best predicts the client's catchment among the enabled items under the
// given announcement order: its most preferred enabled item. ok is false when
// the client lacks a total order over the enabled items.
func (cp *ClientPrefs) Best(enabled []Item, annRank []Item) (Item, bool) {
	order, ok := cp.TotalOrder(annRank)
	if !ok {
		return 0, false
	}
	en := make(map[Item]bool, len(enabled))
	for _, e := range enabled {
		en[e] = true
	}
	for _, it := range order {
		if en[it] {
			return it, true
		}
	}
	return 0, false
}

// HasTotalOrder reports whether the client's relations over items are
// complete and acyclic under the given announcement order.
func (cp *ClientPrefs) HasTotalOrder(announce []Item) bool {
	_, ok := cp.TotalOrder(announce)
	return ok
}

// FracWithTotalOrder returns the fraction of recorded clients having a total
// order over the given announcement order.
func (s *Store) FracWithTotalOrder(announce []Item) float64 {
	if len(s.keys) == 0 {
		return 0
	}
	n := 0
	for i := range s.keys {
		if s.views[i].HasTotalOrder(announce) {
			n++
		}
	}
	return float64(n) / float64(len(s.keys))
}

// BestAnnouncementOrder searches announcement orders of the items and returns
// the one maximizing the fraction of clients with a total order (§4.5 step 3:
// "the announcement order that maximizes the number of client networks with a
// consistent total order"). For ≤ maxExhaustive items every permutation is
// tried; beyond that a greedy insertion heuristic is used.
func (s *Store) BestAnnouncementOrder(maxExhaustive int) ([]Item, float64) {
	items := s.Items()
	if len(items) <= 1 {
		return items, s.FracWithTotalOrder(items)
	}
	if len(items) <= maxExhaustive {
		bestFrac := -1.0
		var best []Item
		permute(items, func(p []Item) {
			if f := s.FracWithTotalOrder(p); f > bestFrac {
				bestFrac = f
				best = append([]Item(nil), p...)
			}
		})
		return best, bestFrac
	}
	// Greedy insertion: grow the order one item at a time, placing each new
	// item at the position that keeps the most clients consistent.
	order := []Item{items[0]}
	for _, it := range items[1:] {
		bestFrac := -1.0
		bestPos := 0
		for pos := 0; pos <= len(order); pos++ {
			trial := make([]Item, 0, len(order)+1)
			trial = append(trial, order[:pos]...)
			trial = append(trial, it)
			trial = append(trial, order[pos:]...)
			if f := s.FracWithTotalOrder(trial); f > bestFrac {
				bestFrac = f
				bestPos = pos
			}
		}
		next := make([]Item, 0, len(order)+1)
		next = append(next, order[:bestPos]...)
		next = append(next, it)
		next = append(next, order[bestPos:]...)
		order = next
	}
	return order, s.FracWithTotalOrder(order)
}

// permute calls fn for every permutation of items (Heap's algorithm).
func permute(items []Item, fn func([]Item)) {
	p := append([]Item(nil), items...)
	var rec func(k int)
	rec = func(k int) {
		if k == 1 {
			fn(p)
			return
		}
		for i := 0; i < k; i++ {
			rec(k - 1)
			if k%2 == 0 {
				p[i], p[k-1] = p[k-1], p[i]
			} else {
				p[0], p[k-1] = p[k-1], p[0]
			}
		}
	}
	rec(len(p))
}
