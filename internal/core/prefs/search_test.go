package prefs

import (
	"math/rand"
	"reflect"
	"testing"
)

// Pair outcomes a synthetic signature can hold.
const (
	sigUnknown = iota
	sigEqual
	sigLowWins
	sigHighWins
)

// randomSignature draws one row shape over n items: a consistent strict
// ranking, a ranking with some pairs equal, the same with holes (unknown
// pairs), or independent coin flips per pair (mostly cyclic for n ≥ 3).
func randomSignature(rng *rand.Rand, n int) []byte {
	sig := make([]byte, 0, n*(n-1)/2)
	kind := rng.Intn(4)
	rank := rng.Perm(n)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			code := byte(sigLowWins)
			if rank[b] < rank[a] {
				code = sigHighWins
			}
			switch {
			case kind == 3:
				code = byte(sigEqual + rng.Intn(3))
			case kind >= 1 && rng.Intn(3) == 0:
				code = sigEqual
			}
			if kind == 2 && rng.Intn(6) == 0 {
				code = sigUnknown
			}
			sig = append(sig, code)
		}
	}
	return sig
}

// poolStore builds a store over items whose clients 0..nClients-1 take their
// rows from pool round-robin, so rows repeat and every signature is present
// as soon as nClients ≥ len(pool).
func poolStore(tb testing.TB, items []Item, pool [][]byte, nClients int) *Store {
	tb.Helper()
	s := mustStore(tb, items...)
	for c := 0; c < nClients; c++ {
		sig := pool[c%len(pool)]
		p := 0
		for a := 0; a < len(items); a++ {
			for b := a + 1; b < len(items); b++ {
				var err error
				switch sig[p] {
				case sigEqual:
					err = s.RecordOrdered(Client(c), items[a], items[b], items[a], items[b])
				case sigLowWins:
					err = s.RecordOrdered(Client(c), items[a], items[b], items[a], items[a])
				case sigHighWins:
					err = s.RecordOrdered(Client(c), items[a], items[b], items[b], items[b])
				}
				if err != nil {
					tb.Fatal(err)
				}
				p++
			}
		}
	}
	return s
}

func randomPool(rng *rand.Rand, nItems, size int) [][]byte {
	pool := make([][]byte, size)
	for i := range pool {
		pool[i] = randomSignature(rng, nItems)
	}
	return pool
}

func scatteredItems(rng *rand.Rand, n int) []Item {
	items := make([]Item, n)
	for i, p := range rng.Perm(n) {
		items[i] = Item(10 + 7*p)
	}
	return items
}

// randomAnnouncement draws a reordered subset of items, sometimes spoiled by
// a repeated item or one outside the universe.
func randomAnnouncement(rng *rand.Rand, items []Item) []Item {
	var ann []Item
	for _, p := range rng.Perm(len(items))[:rng.Intn(len(items)+1)] {
		ann = append(ann, items[p])
	}
	switch rng.Intn(8) {
	case 0:
		ann = append(ann, 9999)
	case 1:
		if len(ann) > 0 {
			ann = append(ann, ann[0])
		}
	}
	return ann
}

// TestOrderSearchMatchesOracle is the differential property behind the
// kernel: on random stores mixing strict, equal, unknown and cyclic rows with
// repeats, every (order, frac) of the search and every per-client order must
// equal the naive oracle's.
func TestOrderSearchMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 42; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := int(seed%7) + 1
		nClients := rng.Intn(301)
		if n == 7 {
			nClients = rng.Intn(41) // 5,040 orders × clients through the oracle
		}
		items := scatteredItems(rng, n)
		s := poolStore(t, items, randomPool(rng, n, 1+rng.Intn(30)), nClients)

		for _, maxExhaustive := range []int{7, 3, 0} { // exhaustive; greedy above 3; greedy above 1
			order, frac := s.BestAnnouncementOrder(maxExhaustive)
			wantOrder, wantFrac := oracleBestAnnouncementOrder(s, maxExhaustive)
			if !reflect.DeepEqual(order, wantOrder) || frac != wantFrac {
				t.Fatalf("seed %d: BestAnnouncementOrder(%d) = %v, %v; oracle %v, %v",
					seed, maxExhaustive, order, frac, wantOrder, wantFrac)
			}
		}
		for trial := 0; trial < 20; trial++ {
			ann := randomAnnouncement(rng, items)
			if got, want := s.FracWithTotalOrder(ann), oracleFracWithTotalOrder(s, ann); got != want {
				t.Fatalf("seed %d: FracWithTotalOrder(%v) = %v, oracle %v", seed, ann, got, want)
			}
			enabled := randomAnnouncement(rng, items)
			resolved := s.Announce(ann)
			for i := range s.keys {
				cp := &ClientPrefs{store: s, idx: i}
				order, ok := cp.TotalOrder(ann)
				wantOrder, wantOK := oracleTotalOrder(cp, ann)
				if ok != wantOK || !reflect.DeepEqual(order, wantOrder) {
					t.Fatalf("seed %d client %d: TotalOrder(%v) = %v, %v; oracle %v, %v",
						seed, s.keys[i], ann, order, ok, wantOrder, wantOK)
				}
				// The row API answers by announcement position, Best first
				// so that Order's scratch is the one compared.
				top, ok := resolved.Best(i)
				if ok != wantOK || (ok && ann[top] != wantOrder[0]) {
					t.Fatalf("seed %d row %d: Announce(%v).Best = %d, %v; oracle %v, %v",
						seed, i, ann, top, ok, wantOrder, wantOK)
				}
				positions, ok := resolved.Order(i)
				if ok != wantOK || len(positions) != len(wantOrder) {
					t.Fatalf("seed %d row %d: Announce(%v).Order = %v, %v; oracle %v, %v",
						seed, i, ann, positions, ok, wantOrder, wantOK)
				}
				for k, a := range positions {
					if ann[a] != wantOrder[k] {
						t.Fatalf("seed %d row %d: Announce(%v).Order = %v; oracle %v", seed, i, ann, positions, wantOrder)
					}
				}
				if cp.HasTotalOrder(ann) != wantOK {
					t.Fatalf("seed %d client %d: HasTotalOrder(%v) = %v", seed, s.keys[i], ann, !wantOK)
				}
				best, ok := cp.Best(enabled, ann)
				wantBest, wantOK := oracleBest(cp, enabled, ann)
				if best != wantBest || ok != wantOK {
					t.Fatalf("seed %d client %d: Best(%v, %v) = %v, %v; oracle %v, %v",
						seed, s.keys[i], enabled, ann, best, ok, wantBest, wantOK)
				}
			}
		}
	}
}

// TestNextHeapMatchesPermute holds the search's in-place enumeration to the
// recursive oracle's visiting order, which decides ties between orders.
func TestNextHeapMatchesPermute(t *testing.T) {
	for n := 1; n <= 7; n++ {
		items := make([]Item, n)
		p := make([]int32, n)
		for i := range items {
			items[i] = Item(i)
			p[i] = int32(i)
		}
		counters := make([]int, n)
		more := true
		visited := 0
		permute(items, func(want []Item) {
			if !more {
				t.Fatalf("n=%d: nextHeap stopped after %d permutations", n, visited)
			}
			for i := range want {
				if Item(p[i]) != want[i] {
					t.Fatalf("n=%d: permutation %d is %v, oracle %v", n, visited, p, want)
				}
			}
			visited++
			more = nextHeap(p, counters)
		})
		if more {
			t.Fatalf("n=%d: nextHeap continues past the oracle's %d permutations", n, visited)
		}
	}
}

// TestOrderKernelAllocations pins the kernel's allocation contract: nothing
// per client within the stack bound, the result slice for TotalOrder, one
// scratch slice per call above the bound — per announcement, not per row,
// through the row API.
func TestOrderKernelAllocations(t *testing.T) {
	for _, tc := range []struct {
		nItems                               int
		hasOrder, best, totalOrder, announce float64
	}{
		{stackItems - 1, 0, 0, 1, 0},
		{stackItems + 4, 1, 1, 2, 1},
	} {
		items := make([]Item, tc.nItems)
		for i := range items {
			items[i] = Item(i + 1)
		}
		s := mustStore(t, items...)
		fillStrict(t, s, 1, items)
		cp := s.Get(1)
		if got := testing.AllocsPerRun(100, func() { cp.HasTotalOrder(items) }); got != tc.hasOrder {
			t.Errorf("%d items: HasTotalOrder allocates %v, want %v", tc.nItems, got, tc.hasOrder)
		}
		if got := testing.AllocsPerRun(100, func() { cp.Best(items, items) }); got != tc.best {
			t.Errorf("%d items: Best allocates %v, want %v", tc.nItems, got, tc.best)
		}
		if got := testing.AllocsPerRun(100, func() { cp.TotalOrder(items) }); got != tc.totalOrder {
			t.Errorf("%d items: TotalOrder allocates %v, want %v", tc.nItems, got, tc.totalOrder)
		}
		var resolved Announcement
		if got := testing.AllocsPerRun(100, func() { resolved = s.Announce(items) }); got != tc.announce {
			t.Errorf("%d items: Announce allocates %v, want %v", tc.nItems, got, tc.announce)
		}
		if got := testing.AllocsPerRun(100, func() { resolved.Best(0); resolved.Order(0) }); got != 0 {
			t.Errorf("%d items: Best and Order of a row allocate %v", tc.nItems, got)
		}
		// fillStrict ranks the items in order, so the order is the identity.
		positions, ok := resolved.Order(0)
		for k, a := range positions {
			ok = ok && int(a) == k
		}
		if !ok || len(positions) != tc.nItems {
			t.Errorf("%d items: Order = %v, %v; want the identity", tc.nItems, positions, ok)
		}
	}
}

// TestOrderSearchAllocationsFollowSignatures checks that the search allocates
// per distinct signature, not per client: ten times the clients over the same
// pool cost the same allocations, on both branches.
func TestOrderSearchAllocationsFollowSignatures(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	items := scatteredItems(rng, 6)
	pool := randomPool(rng, 6, 60)
	small := poolStore(t, items, pool, 500)
	large := poolStore(t, items, pool, 5000)
	for _, maxExhaustive := range []int{7, 3} {
		a := testing.AllocsPerRun(3, func() { small.BestAnnouncementOrder(maxExhaustive) })
		b := testing.AllocsPerRun(3, func() { large.BestAnnouncementOrder(maxExhaustive) })
		if a != b {
			t.Errorf("BestAnnouncementOrder(%d) allocates %v at 500 clients and %v at 5,000", maxExhaustive, a, b)
		}
	}
}

// BenchmarkBestAnnouncementOrder is the paper-scale order search in
// isolation: 6 providers, 2,780 clients over a fixed pool of 750 signatures.
func BenchmarkBestAnnouncementOrder(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	items := scatteredItems(rng, 6)
	s := poolStore(b, items, randomPool(rng, 6, 750), 2780)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if order, _ := s.BestAnnouncementOrder(7); len(order) != len(items) {
			b.Fatal("short order")
		}
	}
}
