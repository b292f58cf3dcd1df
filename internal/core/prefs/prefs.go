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
// one flat relation column shared by every client, indexed row-major as
// cells[clientRow*NumPairs+pairIdx]. Point lookups binary-search the client
// column; recording appends in O(1) because campaigns record each experiment
// in target order and targets are sorted by client (discovery reads its
// dense sweeps by target position), so the sorted column grows at the tail.
// Compared to the former map[Client]*ClientPrefs backing, a client row costs
// one byte per pair (the relation and, when strict, which item won) in one
// contiguous slab instead of a map entry, a heap-allocated struct, and a
// 16-byte-per-pair slice — the layout internet-scale campaigns (100k clients)
// need to stay in cache and under memory ceilings. Campaign builders call
// Compact once recording ends, trimming append-growth slack before the store
// is published.
package prefs

import "fmt"

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

// ClientPrefs is a view of one client's row in the store's relation column.
// Views are positional: a view stays valid across appends of later clients,
// but recording an out-of-order client (which shifts rows) invalidates
// previously obtained views — callers record first, then read.
type ClientPrefs struct {
	store *Store
	idx   int
}

// cell is one client's relation for one unordered pair of store indices
// a < b: whether it is known, and who wins. Relation and winner Item are
// how it reads from outside the store. It is a byte, so that the relation
// column is a []byte that Columns and NewStoreColumns hand over as it is.
type cell = byte

const (
	cellUnknown cell = iota
	cellEqual
	// cellLowWins: the item with store index a wins strictly.
	cellLowWins
	// cellHighWins: the item with store index b wins strictly.
	cellHighWins
)

// Store collects pairwise preferences for a fixed item universe, columnar:
// keys is the sorted client-ID column and cells the flat relation column of
// len(keys)*NumPairs() cells.
type Store struct {
	items  []Item
	index  map[Item]int
	nPairs int
	// keys holds every recorded client, ascending.
	keys ClientColumn
	// cells[row*nPairs+p] is client keys[row]'s relation for pair p.
	cells []cell
}

// NewStore creates a store over the given items. Items must be distinct.
func NewStore(items []Item) (*Store, error) {
	if len(items) < 1 {
		return nil, fmt.Errorf("prefs: store needs at least one item")
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
	i, ok := s.keys.Find(c)
	if ok {
		return i
	}
	s.keys = append(s.keys, 0)
	copy(s.keys[i+1:], s.keys[i:])
	s.keys[i] = c
	s.grow()
	row := s.cells[i*s.nPairs:]
	copy(row[s.nPairs:], row)
	clear(row[:s.nPairs])
	return i
}

// grow extends the relation column by one row of unknown cells.
func (s *Store) grow() {
	if cap(s.cells) < len(s.cells)+s.nPairs {
		nc := make([]cell, len(s.cells), (cap(s.cells)+s.nPairs)*2)
		copy(nc, s.cells)
		s.cells = nc
	}
	s.cells = s.cells[:len(s.cells)+s.nPairs]
	clear(s.cells[len(s.cells)-s.nPairs:])
}

// Compact trims the append-growth slack off every column, shrinking the
// store to exactly its recorded rows. Campaign builders call it once after
// bulk recording, before the store is published into an immutable snapshot;
// at internet scale the doubling slack is a third of the store, so trimming
// it is what keeps the measured bytes/client at the columnar floor.
// Recording remains legal afterwards — the next append just reallocates.
func (s *Store) Compact() {
	if cap(s.keys) == len(s.keys) && cap(s.cells) == len(s.cells) {
		return
	}
	s.keys = append(make([]Client, 0, len(s.keys)), s.keys...)
	s.cells = append(make([]cell, 0, len(s.cells)), s.cells...)
}

// Get returns the per-client view, or nil if the client was never recorded.
// Served read paths walk rows (Announce, ClientAt, Seek) and never call it.
func (s *Store) Get(c Client) *ClientPrefs {
	i, ok := s.keys.Find(c)
	if !ok {
		return nil
	}
	return &ClientPrefs{store: s, idx: i}
}

// relationOf decodes one cell of the pair of store indices (a, b), a < b.
func (s *Store) relationOf(c cell, a, b int) (Relation, Item) {
	switch c {
	case cellEqual:
		return RelEqual, 0
	case cellLowWins:
		return RelStrict, s.items[a]
	case cellHighWins:
		return RelStrict, s.items[b]
	}
	return RelUnknown, 0
}

// at returns the relation, and for RelStrict the winner, of the given row
// for the pair of store indices (a, b), in either order.
func (s *Store) at(row, a, b int) (Relation, Item) {
	if a > b {
		a, b = b, a
	}
	return s.relationOf(s.cells[row*s.nPairs+s.pairIdx(a, b)], a, b)
}

// set records rel for the pair of store indices (a, b), in either order;
// winner is the store index of the strict winner and ignored otherwise.
func (s *Store) set(row, a, b int, rel Relation, winner int) {
	c := cellEqual
	if rel == RelStrict {
		c = cellLowWins
		if winner == max(a, b) {
			c = cellHighWins
		}
	}
	s.cells[row*s.nPairs+s.pairIdx(a, b)] = c
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
	switch {
	case winnerIFirst == winnerJFirst:
		s.set(row, ii, jj, RelStrict, s.index[winnerIFirst])
	default:
		// The winner flipped with the announcement order (whichever
		// direction): the client is indifferent and route age decides
		// (§4.2: "otherwise ... it has equivalent preferences").
		s.set(row, ii, jj, RelEqual, -1)
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
	s.set(row, ii, jj, RelStrict, s.index[winner])
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
	return s.at(cp.idx, ii, jj)
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

// stackItems is the announcement length the tournament kernel serves from
// stack scratch: the paper's 15 sites and 6 providers fit. A longer
// announcement costs one slice per call (never one per client).
const stackItems = 16

// scratch is the kernel's working set for one announcement of n items, three
// n-long windows of one buffer.
type scratch struct {
	// ix[a] is the store index of the a-th announced item, -1 when the item
	// is outside the universe.
	ix []int32
	// wins[a] counts the pairs the a-th announced item won.
	wins []int32
	// rank[k] is the announcement position of the k-th most preferred item.
	rank []int32
}

// carve windows the first 3n words of b as a scratch for n items.
func carve(b []int32, n int) scratch {
	return scratch{ix: b[:n], wins: b[n : 2*n], rank: b[2*n : 3*n]}
}

// newScratch carves a scratch for n items out of buf, or out of one fresh
// slice when n exceeds the stack bound.
func newScratch(buf *[3 * stackItems]int32, n int) scratch {
	if n > stackItems {
		return carve(make([]int32, 3*n), n)
	}
	return carve(buf[:], n)
}

// lookup fills ix with the announced items' store indices.
func (s *Store) lookup(ix []int32, announce []Item) {
	for a, it := range announce {
		ix[a] = -1
		if i, ok := s.index[it]; ok {
			ix[a] = int32(i)
		}
	}
}

// resolve returns a scratch whose ix holds the announced items' store
// indices.
func (s *Store) resolve(buf *[3 * stackItems]int32, announce []Item) scratch {
	sc := newScratch(buf, len(announce))
	s.lookup(sc.ix, announce)
	return sc
}

// tournament is the one total-order kernel. It plays every pair of the
// announced items sc.ix (earliest announced first) from the relation cells of
// one client row: a strict pair goes to its recorded winner, an equal pair to
// the earlier-announced item (route age decides, §4.2). It reports whether
// the outcome is a total order and, if so, leaves the order in sc.rank.
//
// Every pair hands out exactly one win, so the n win counts sum to n(n-1)/2.
// They are a total order iff they are exactly {0..n-1}: the item with n-1
// wins beats every other, and removing it leaves the same statement for n-1
// items; conversely any cycle forces two items to share a count. So no win
// matrix is kept — filling rank[n-1-wins[a]] without a collision is the whole
// acyclicity check. An empty announcement, a repeated item, an item outside
// the universe (with anything to compare it to) and an unmeasured pair all
// mean there is no order.
func (s *Store) tournament(row int, sc scratch) bool {
	ix, wins, rank := sc.ix, sc.wins, sc.rank
	n := len(ix)
	if n == 0 {
		return false
	}
	for a := range wins {
		wins[a] = 0
		rank[a] = -1
	}
	base := row * s.nPairs
	for a := 0; a < n; a++ {
		ia := ix[a]
		won := int32(0)
		for b := a + 1; b < n; b++ {
			ib := ix[b]
			if ia|ib < 0 || ia == ib {
				return false
			}
			c := s.cells[base+s.pairIdx(int(ia), int(ib))]
			if c == cellUnknown {
				return false
			}
			// a wins strictly on cellLowWins when it holds the lower store
			// index and on cellHighWins when it holds the higher one.
			aWins := cellLowWins
			if ia > ib {
				aWins = cellHighWins
			}
			// Branch-free on the data: who wins a measured pair is a coin
			// flip to the predictor, and a candidate order is judged on
			// hundreds of signatures.
			w := int32(0)
			if c == cellEqual {
				w = 1 // the earlier-announced item wins
			}
			if c == aWins {
				w = 1 // a won strictly
			}
			won += w
			wins[b] += 1 - w
		}
		wins[a] += won
	}
	for a, w := range wins {
		k := n - 1 - int(w)
		if rank[k] >= 0 {
			return false
		}
		rank[k] = int32(a)
	}
	return true
}

// TotalOrder attempts to build the client's total preference order over the
// given items under the given announcement order (earliest first). It
// returns the items most-preferred-first and ok=false when the pairwise
// relations are incomplete or cyclic — the clients the paper excludes from
// prediction (§4.2).
func (cp *ClientPrefs) TotalOrder(announce []Item) ([]Item, bool) {
	var buf [3 * stackItems]int32
	sc := cp.store.resolve(&buf, announce)
	if !cp.store.tournament(cp.idx, sc) {
		return nil, false
	}
	out := make([]Item, len(announce))
	for k, a := range sc.rank {
		out[k] = announce[a]
	}
	return out, true
}

// Best predicts the client's catchment among the enabled items under the
// given announcement order: its most preferred enabled item. ok is false when
// the client lacks a total order over the enabled items.
func (cp *ClientPrefs) Best(enabled []Item, annRank []Item) (Item, bool) {
	var buf [3 * stackItems]int32
	sc := cp.store.resolve(&buf, annRank)
	if !cp.store.tournament(cp.idx, sc) {
		return 0, false
	}
	for _, a := range sc.rank {
		it := annRank[a]
		for _, e := range enabled {
			if e == it {
				return it, true
			}
		}
	}
	return 0, false
}

// HasTotalOrder reports whether the client's relations over items are
// complete and acyclic under the given announcement order.
func (cp *ClientPrefs) HasTotalOrder(announce []Item) bool {
	var buf [3 * stackItems]int32
	return cp.store.tournament(cp.idx, cp.store.resolve(&buf, announce))
}

// Announcement is an announcement order resolved against one store's item
// universe once, so that judging it for a client row costs no map lookup and
// no allocation: the read side resolves a configuration per request and then
// walks the key column (ClientAt, Seek) asking Best or Order per row. It
// carries the kernel's scratch inline — a value, so a plan can hold one per
// provider in a single slice — and is therefore used by one goroutine at a
// time; the store stays shared and read-only.
type Announcement struct {
	s *Store
	n int
	// buf is the scratch of an announcement within the stack bound; a longer
	// one lives in big.
	buf [3 * stackItems]int32
	big []int32
}

// Announce resolves an announcement order (earliest first) against the store.
func (s *Store) Announce(announce []Item) Announcement {
	a := Announcement{s: s, n: len(announce)}
	if a.n > stackItems {
		a.big = make([]int32, 3*a.n)
	}
	s.lookup(a.scratch().ix, announce)
	return a
}

func (a *Announcement) scratch() scratch {
	if a.big != nil {
		return carve(a.big, a.n)
	}
	return carve(a.buf[:], a.n)
}

// Best is ClientPrefs.Best with every announced item enabled: the position in
// the announcement of the row's most preferred item. ok is false when the row
// has no total order over the announcement.
func (a *Announcement) Best(row int) (int, bool) {
	sc := a.scratch()
	if !a.s.tournament(row, sc) {
		return 0, false
	}
	return int(sc.rank[0]), true
}

// Order is ClientPrefs.TotalOrder by position: the announcement positions of
// the row's total order, most preferred first. The slice is the
// announcement's own scratch and is overwritten by the next Best or Order.
func (a *Announcement) Order(row int) ([]int32, bool) {
	sc := a.scratch()
	if !a.s.tournament(row, sc) {
		return nil, false
	}
	return sc.rank, true
}

// ClientAt returns the client of the given row of the sorted key column,
// 0 ≤ row < NumClients().
func (s *Store) ClientAt(row int) Client { return s.keys[row] }

// Seek is ClientColumn.Seek on the store's client column.
func (s *Store) Seek(from int, c Client) (int, bool) { return s.keys.Seek(from, c) }

// class is one distinct relation signature over an announced item set: the
// first row that carries it stands for all n rows that do.
type class struct {
	row int32
	n   int32
}

// classes collapses the store's rows into their distinct relation signatures
// over the items ix, in first-seen row order. Catchment is decided by a
// handful of preference relations per network, so thousands of clients share
// a few hundred signatures and every candidate announcement order is then
// judged once per signature instead of once per client. The signature is the
// row's cells of the pairs of ix, in listed order, so two rows with the same
// signature have the same tournament under every ordering of ix. Rows with
// an unmeasured pair among ix have no total order under any of them and are
// dropped here, once. The map only finds a signature's class; nothing
// iterates it.
func (s *Store) classes(ix []int32) []class {
	n := len(ix)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if ix[a] < 0 || ix[b] < 0 || ix[a] == ix[b] {
				return nil
			}
		}
	}
	var out []class
	sig := make([]byte, 0, n*(n-1)/2)
	seen := make(map[string]int32)
rows:
	for row := range s.keys {
		sig = sig[:0]
		base := row * s.nPairs
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				c := s.cells[base+s.pairIdx(int(ix[a]), int(ix[b]))]
				if c == cellUnknown {
					continue rows
				}
				sig = append(sig, byte(c))
			}
		}
		c, ok := seen[string(sig)]
		if !ok {
			c = int32(len(out))
			seen[string(sig)] = c
			out = append(out, class{row: int32(row)})
		}
		out[c].n++
	}
	return out
}

// countTotal returns how many of the rows behind classes have a total order
// under the announcement sc.ix.
func (s *Store) countTotal(classes []class, sc scratch) int {
	n := 0
	for _, c := range classes {
		if s.tournament(int(c.row), sc) {
			n += int(c.n)
		}
	}
	return n
}

// frac turns a client count into the fraction of recorded clients.
func (s *Store) frac(count int) float64 {
	if len(s.keys) == 0 {
		return 0
	}
	return float64(count) / float64(len(s.keys))
}

// FracWithTotalOrder returns the fraction of recorded clients having a total
// order over the given announcement order.
func (s *Store) FracWithTotalOrder(announce []Item) float64 {
	var buf [3 * stackItems]int32
	sc := s.resolve(&buf, announce)
	return s.frac(s.countTotal(s.classes(sc.ix), sc))
}

// BestAnnouncementOrder searches announcement orders of the items and returns
// the one maximizing the fraction of clients with a total order (§4.5 step 3:
// "the announcement order that maximizes the number of client networks with a
// consistent total order"). For ≤ maxExhaustive items every permutation is
// tried, in Heap's-algorithm order, and the first one with the highest count
// wins; beyond that a greedy insertion heuristic is used. Either way each
// candidate is judged once per relation signature (see classes).
func (s *Store) BestAnnouncementOrder(maxExhaustive int) ([]Item, float64) {
	n := len(s.items)
	if n <= 1 {
		return s.Items(), s.FracWithTotalOrder(s.items)
	}
	var buf [3 * stackItems]int32
	sc := newScratch(&buf, n)
	best := make([]int32, 0, n)
	bestCount := -1
	if n <= maxExhaustive {
		for i := range sc.ix {
			sc.ix[i] = int32(i)
		}
		classes := s.classes(sc.ix)
		counters := make([]int, n)
		for more := true; more; more = nextHeap(sc.ix, counters) {
			if c := s.countTotal(classes, sc); c > bestCount {
				bestCount = c
				best = append(best[:0], sc.ix...)
			}
		}
	} else {
		// Greedy insertion: grow the order one item at a time, placing each
		// new item at the first position that keeps the most clients
		// consistent.
		best = append(best, 0)
		for it := 1; it < n; it++ {
			k := len(best)
			trial := scratch{ix: sc.ix[:k+1], wins: sc.wins[:k+1], rank: sc.rank[:k+1]}
			trial.ix[0] = int32(it)
			copy(trial.ix[1:], best)
			classes := s.classes(trial.ix)
			bestCount = -1
			bestPos := 0
			for pos := 0; ; pos++ {
				if c := s.countTotal(classes, trial); c > bestCount {
					bestCount = c
					bestPos = pos
				}
				if pos == k {
					break
				}
				trial.ix[pos], trial.ix[pos+1] = trial.ix[pos+1], trial.ix[pos]
			}
			best = append(best, 0)
			copy(best[bestPos+1:], best[bestPos:])
			best[bestPos] = int32(it)
		}
	}
	order := make([]Item, n)
	for i, ix := range best {
		order[i] = s.items[ix]
	}
	return order, s.frac(bestCount)
}

// nextHeap advances p to the next permutation in the order Heap's algorithm
// (the form that swaps after every recursive call) visits them; counters holds
// one loop counter per level, all zero before the first call. It returns false
// once every permutation has been visited.
func nextHeap(p []int32, counters []int) bool {
	for k := 2; k <= len(p); k++ {
		if k%2 == 0 {
			p[counters[k-1]], p[k-1] = p[k-1], p[counters[k-1]]
		} else {
			p[0], p[k-1] = p[k-1], p[0]
		}
		counters[k-1]++
		if counters[k-1] < k {
			return true
		}
		counters[k-1] = 0
	}
	return false
}
