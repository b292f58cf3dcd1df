package prefs

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func mustStore(t testing.TB, items ...Item) *Store {
	t.Helper()
	s, err := NewStore(items)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewStoreErrors(t *testing.T) {
	if _, err := NewStore(nil); err == nil {
		t.Error("empty store accepted")
	}
	if _, err := NewStore([]Item{1, 2, 1}); err == nil {
		t.Error("duplicate items accepted")
	}
}

func TestRecordOrderedStrict(t *testing.T) {
	s := mustStore(t, 1, 2, 3)
	// Client 100 strictly prefers 2 over 1 (same winner both orders).
	if err := s.RecordOrdered(100, 1, 2, 2, 2); err != nil {
		t.Fatal(err)
	}
	rel, w := s.Get(100).Relation(1, 2)
	if rel != RelStrict || w != 2 {
		t.Errorf("relation = %v/%d, want strict/2", rel, w)
	}
	// Symmetric lookup.
	rel, w = s.Get(100).Relation(2, 1)
	if rel != RelStrict || w != 2 {
		t.Errorf("reverse relation = %v/%d, want strict/2", rel, w)
	}
}

func TestRecordOrderedEqual(t *testing.T) {
	s := mustStore(t, 1, 2)
	// Winner follows announcement order → equal preference.
	if err := s.RecordOrdered(100, 1, 2, 1, 2); err != nil {
		t.Fatal(err)
	}
	if rel, _ := s.Get(100).Relation(1, 2); rel != RelEqual {
		t.Errorf("relation = %v, want equal", rel)
	}
	// Inverted flip (later announced wins both times) is also "equal".
	if err := s.RecordOrdered(101, 1, 2, 2, 1); err != nil {
		t.Fatal(err)
	}
	if rel, _ := s.Get(101).Relation(1, 2); rel != RelEqual {
		t.Errorf("inverted flip relation = %v, want equal", rel)
	}
}

func TestRecordValidation(t *testing.T) {
	s := mustStore(t, 1, 2)
	if err := s.RecordOrdered(1, 1, 9, 1, 1); err == nil {
		t.Error("unknown item accepted")
	}
	if err := s.RecordOrdered(1, 1, 2, 9, 1); err == nil {
		t.Error("foreign winner accepted")
	}
	if err := s.RecordOrdered(1, 1, 1, 1, 1); err == nil {
		t.Error("degenerate pair accepted")
	}
	if err := s.RecordSimultaneous(1, 1, 2, 9); err == nil {
		t.Error("foreign winner accepted (simultaneous)")
	}
	if err := s.RecordSimultaneous(1, 1, 9, 1); err == nil {
		t.Error("unknown item accepted (simultaneous)")
	}
}

// fillStrict records a full strict order for client c: items earlier in
// ranking beat later ones.
func fillStrict(t *testing.T, s *Store, c Client, ranking []Item) {
	t.Helper()
	for i := 0; i < len(ranking); i++ {
		for j := i + 1; j < len(ranking); j++ {
			if err := s.RecordOrdered(c, ranking[i], ranking[j], ranking[i], ranking[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestTotalOrderStrict(t *testing.T) {
	s := mustStore(t, 1, 2, 3, 4)
	fillStrict(t, s, 100, []Item{3, 1, 4, 2})
	order, ok := s.Get(100).TotalOrder([]Item{1, 2, 3, 4})
	if !ok {
		t.Fatal("no total order for fully strict client")
	}
	want := []Item{3, 1, 4, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTotalOrderWithEqualsUsesAnnouncementOrder(t *testing.T) {
	s := mustStore(t, 1, 2, 3)
	// All pairs equal: order should follow announcement order exactly.
	for _, c := range []Client{7} {
		s.RecordOrdered(c, 1, 2, 1, 2)
		s.RecordOrdered(c, 1, 3, 1, 3)
		s.RecordOrdered(c, 2, 3, 2, 3)
	}
	order, ok := s.Get(7).TotalOrder([]Item{2, 3, 1})
	if !ok {
		t.Fatal("all-equal client should have a total order under any announcement order")
	}
	want := []Item{2, 3, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	// Different announcement order → different total order.
	order2, ok := s.Get(7).TotalOrder([]Item{1, 2, 3})
	if !ok || order2[0] != 1 {
		t.Fatalf("order under (1,2,3) = %v, ok=%v", order2, ok)
	}
}

func TestCyclicPrefsHaveNoTotalOrder(t *testing.T) {
	s := mustStore(t, 1, 2, 3)
	// 1 > 2, 2 > 3, 3 > 1 — the Figure 3 cycle.
	s.RecordSimultaneous(9, 1, 2, 1)
	s.RecordSimultaneous(9, 2, 3, 2)
	s.RecordSimultaneous(9, 1, 3, 3)
	if s.Get(9).HasTotalOrder([]Item{1, 2, 3}) {
		t.Fatal("cyclic preferences reported as total order")
	}
	// Any pair alone is still fine.
	if _, ok := s.Get(9).TotalOrder([]Item{1, 2}); !ok {
		t.Error("two-item subset should be orderable")
	}
}

func TestIncompletePrefsNoTotalOrder(t *testing.T) {
	s := mustStore(t, 1, 2, 3)
	s.RecordSimultaneous(9, 1, 2, 1)
	if s.Get(9).HasTotalOrder([]Item{1, 2, 3}) {
		t.Fatal("incomplete relations reported as total order")
	}
	if !s.Get(9).Complete([]Item{1, 2}) {
		t.Error("pair (1,2) should be complete")
	}
	if s.Get(9).Complete([]Item{1, 2, 3}) {
		t.Error("triple should be incomplete")
	}
}

func TestBest(t *testing.T) {
	s := mustStore(t, 1, 2, 3, 4)
	fillStrict(t, s, 100, []Item{3, 1, 4, 2})
	ann := []Item{1, 2, 3, 4}
	best, ok := s.Get(100).Best([]Item{2, 4}, ann)
	if !ok || best != 4 {
		t.Errorf("Best({2,4}) = %d/%v, want 4 (ranked above 2)", best, ok)
	}
	best, ok = s.Get(100).Best([]Item{1, 2, 3, 4}, ann)
	if !ok || best != 3 {
		t.Errorf("Best(all) = %d/%v, want 3", best, ok)
	}
	if _, ok := s.Get(100).Best(nil, ann); ok {
		t.Error("Best of empty enabled set should fail")
	}
}

func TestFracWithTotalOrder(t *testing.T) {
	s := mustStore(t, 1, 2, 3)
	fillStrict(t, s, 1, []Item{1, 2, 3})
	fillStrict(t, s, 2, []Item{3, 2, 1})
	// Client 3 cyclic.
	s.RecordSimultaneous(3, 1, 2, 1)
	s.RecordSimultaneous(3, 2, 3, 2)
	s.RecordSimultaneous(3, 1, 3, 3)
	got := s.FracWithTotalOrder([]Item{1, 2, 3})
	if got < 0.66 || got > 0.67 {
		t.Errorf("frac = %v, want 2/3", got)
	}
}

func TestBestAnnouncementOrderExhaustive(t *testing.T) {
	s := mustStore(t, 1, 2, 3)
	// Ten clients: all-equal pairs → any order gives a total order.
	for c := Client(0); c < 10; c++ {
		s.RecordOrdered(c, 1, 2, 1, 2)
		s.RecordOrdered(c, 1, 3, 1, 3)
		s.RecordOrdered(c, 2, 3, 2, 3)
	}
	// One adversarial client: strict 2>1, strict 3>2, equal (1,3).
	// Under announcement order ...1 before 3..., the equal pair resolves
	// 1>3, closing the cycle 2>1>3>2 — so some orders are worse.
	s.RecordOrdered(99, 1, 2, 2, 2)
	s.RecordOrdered(99, 2, 3, 3, 3)
	s.RecordOrdered(99, 1, 3, 1, 3)
	order, frac := s.BestAnnouncementOrder(6)
	if frac != 1.0 {
		t.Fatalf("best order %v achieves %v, want 1.0 (announce 3 before 1)", order, frac)
	}
	// Verify the chosen order really resolves client 99.
	if !s.Get(99).HasTotalOrder(order) {
		t.Error("reported best order does not give client 99 a total order")
	}
}

func TestBestAnnouncementOrderGreedy(t *testing.T) {
	items := []Item{1, 2, 3, 4, 5, 6, 7, 8}
	s := mustStore(t, items...)
	rng := rand.New(rand.NewSource(1))
	for c := Client(0); c < 50; c++ {
		perm := rng.Perm(len(items))
		ranking := make([]Item, len(items))
		for i, p := range perm {
			ranking[i] = items[p]
		}
		for i := 0; i < len(ranking); i++ {
			for j := i + 1; j < len(ranking); j++ {
				s.RecordOrdered(c, ranking[i], ranking[j], ranking[i], ranking[i])
			}
		}
	}
	// Greedy path (maxExhaustive below item count).
	order, frac := s.BestAnnouncementOrder(4)
	if len(order) != len(items) {
		t.Fatalf("greedy order has %d items", len(order))
	}
	if frac != 1.0 {
		t.Errorf("fully strict clients should all be consistent; frac = %v", frac)
	}
	seen := map[Item]bool{}
	for _, it := range order {
		seen[it] = true
	}
	if len(seen) != len(items) {
		t.Error("greedy order lost items")
	}
}

// Property: a client with a randomly generated strict ranking always has a
// total order equal to that ranking, and Best always returns the top enabled
// item — the executable form of Theorem A.1's prediction claim.
func TestPropertyStrictRankingRoundTrips(t *testing.T) {
	f := func(seed int64, nItems uint8, subsetMask uint16) bool {
		n := int(nItems%6) + 2
		items := make([]Item, n)
		for i := range items {
			items[i] = Item(i + 1)
		}
		s, err := NewStore(items)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		ranking := make([]Item, n)
		for i, p := range rng.Perm(n) {
			ranking[i] = items[p]
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if err := s.RecordOrdered(42, ranking[i], ranking[j], ranking[i], ranking[i]); err != nil {
					return false
				}
			}
		}
		order, ok := s.Get(42).TotalOrder(items)
		if !ok {
			return false
		}
		for i := range ranking {
			if order[i] != ranking[i] {
				return false
			}
		}
		// Any nonempty subset: Best = first ranked item in subset.
		var enabled []Item
		for i := 0; i < n; i++ {
			if subsetMask&(1<<i) != 0 {
				enabled = append(enabled, items[i])
			}
		}
		if len(enabled) == 0 {
			return true
		}
		best, ok := s.Get(42).Best(enabled, items)
		if !ok {
			return false
		}
		for _, r := range ranking {
			for _, e := range enabled {
				if r == e {
					return best == r
				}
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: with all pairs equal, the total order equals the announcement
// order for any permutation.
func TestPropertyEqualPairsFollowAnnouncement(t *testing.T) {
	f := func(seed int64) bool {
		items := []Item{1, 2, 3, 4, 5}
		s, err := NewStore(items)
		if err != nil {
			return false
		}
		for i := 0; i < len(items); i++ {
			for j := i + 1; j < len(items); j++ {
				s.RecordOrdered(7, items[i], items[j], items[i], items[j])
			}
		}
		rng := rand.New(rand.NewSource(seed))
		ann := make([]Item, len(items))
		for i, p := range rng.Perm(len(items)) {
			ann[i] = items[p]
		}
		order, ok := s.Get(7).TotalOrder(ann)
		if !ok {
			return false
		}
		for i := range ann {
			if order[i] != ann[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPairIdxCoversAllPairs(t *testing.T) {
	s := mustStore(t, 10, 20, 30, 40, 50)
	seen := map[int]bool{}
	n := 5
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			idx := s.pairIdx(a, b)
			if idx < 0 || idx >= s.NumPairs() {
				t.Fatalf("pairIdx(%d,%d) = %d out of range", a, b, idx)
			}
			if seen[idx] {
				t.Fatalf("pairIdx collision at (%d,%d)", a, b)
			}
			seen[idx] = true
			if idx != s.pairIdx(b, a) {
				t.Fatalf("pairIdx not symmetric for (%d,%d)", a, b)
			}
		}
	}
	if len(seen) != s.NumPairs() {
		t.Fatalf("covered %d pairs, want %d", len(seen), s.NumPairs())
	}
}

// TestTotalOrderEdgeCases pins what the kernel must keep at the rim of its
// input: no order for an empty announcement, a repeated item or an item
// outside the universe; an order for any single item.
func TestTotalOrderEdgeCases(t *testing.T) {
	s := mustStore(t, 1, 2, 3)
	fillStrict(t, s, 5, []Item{2, 1, 3})
	cp := s.Get(5)
	for _, tc := range []struct {
		name     string
		announce []Item
		want     []Item // nil: no order
	}{
		{"empty", nil, nil},
		{"single", []Item{3}, []Item{3}},
		{"all", []Item{1, 2, 3}, []Item{2, 1, 3}},
		{"duplicate", []Item{1, 2, 1}, nil},
		{"outside the universe", []Item{1, 9}, nil},
	} {
		wantOK := tc.want != nil
		if order, ok := cp.TotalOrder(tc.announce); ok != wantOK || !reflect.DeepEqual(order, tc.want) {
			t.Errorf("%s: TotalOrder = %v, %v; want %v", tc.name, order, ok, tc.want)
		}
		if ok := cp.HasTotalOrder(tc.announce); ok != wantOK {
			t.Errorf("%s: HasTotalOrder = %v, want %v", tc.name, ok, wantOK)
		}
		if best, ok := cp.Best(tc.announce, tc.announce); ok != wantOK || (ok && best != tc.want[0]) {
			t.Errorf("%s: Best = %v, %v; want the head of %v", tc.name, best, ok, tc.want)
		}
		wantFrac := 0.0
		if wantOK {
			wantFrac = 1
		}
		if got := s.FracWithTotalOrder(tc.announce); got != wantFrac {
			t.Errorf("%s: FracWithTotalOrder = %v, want %v", tc.name, got, wantFrac)
		}
	}
	empty := mustStore(t, 1, 2, 3)
	if order, frac := empty.BestAnnouncementOrder(7); !reflect.DeepEqual(order, []Item{1, 2, 3}) || frac != 0 {
		t.Errorf("empty store: BestAnnouncementOrder = %v, %v; want the item order and 0", order, frac)
	}
}

func BenchmarkTotalOrder15Sites(b *testing.B) {
	items := make([]Item, 15)
	for i := range items {
		items[i] = Item(i + 1)
	}
	s, _ := NewStore(items)
	rng := rand.New(rand.NewSource(1))
	ranking := make([]Item, len(items))
	for i, p := range rng.Perm(len(items)) {
		ranking[i] = items[p]
	}
	for i := 0; i < len(ranking); i++ {
		for j := i + 1; j < len(ranking); j++ {
			s.RecordOrdered(1, ranking[i], ranking[j], ranking[i], ranking[i])
		}
	}
	cp := s.Get(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := cp.TotalOrder(items); !ok {
			b.Fatal("no order")
		}
	}
}
