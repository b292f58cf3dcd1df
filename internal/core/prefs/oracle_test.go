package prefs

import "sort"

// The naive order search the tournament kernel replaced, kept verbatim as the
// oracle: a per-call rank map, an n×n win matrix, a stable sort by win count
// with an explicit dominance check, and one evaluation per client per
// candidate order. TestOrderSearchMatchesOracle holds the kernel to it.

// oraclePrefersUnder reports whether x beats y under announcement order
// annRank (lower rank = announced earlier): strict winners win; equal pairs
// go to the earlier-announced item.
func oraclePrefersUnder(cp *ClientPrefs, x, y Item, annRank map[Item]int) (bool, bool) {
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

func oracleTotalOrder(cp *ClientPrefs, announce []Item) ([]Item, bool) {
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
			ab, ok := oraclePrefersUnder(cp, announce[a], announce[b], annRank)
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

func oracleBest(cp *ClientPrefs, enabled []Item, annRank []Item) (Item, bool) {
	order, ok := oracleTotalOrder(cp, annRank)
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

func oracleFracWithTotalOrder(s *Store, announce []Item) float64 {
	if len(s.keys) == 0 {
		return 0
	}
	n := 0
	for i := range s.keys {
		if _, ok := oracleTotalOrder(&ClientPrefs{store: s, idx: i}, announce); ok {
			n++
		}
	}
	return float64(n) / float64(len(s.keys))
}

func oracleBestAnnouncementOrder(s *Store, maxExhaustive int) ([]Item, float64) {
	items := s.Items()
	if len(items) <= 1 {
		return items, oracleFracWithTotalOrder(s, items)
	}
	if len(items) <= maxExhaustive {
		bestFrac := -1.0
		var best []Item
		permute(items, func(p []Item) {
			if f := oracleFracWithTotalOrder(s, p); f > bestFrac {
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
			if f := oracleFracWithTotalOrder(s, trial); f > bestFrac {
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
	return order, oracleFracWithTotalOrder(s, order)
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
