package prefs

import "fmt"

// PatchClients builds a new store over the same item universe in which every
// client selected by cone is replaced wholesale by its row in patch — or
// dropped, when patch holds no row for it (the client stopped responding
// after the routing change). Clients outside the cone keep their rows from
// s; clients that appear only in patch are added. Neither input store is
// modified: the result is a fresh copy-on-write table, which is what lets
// the reconciler publish it through PatchCampaign without ever exposing a
// half-repaired row.
//
// When the cone selects no client of either store — the empty-repair case a
// churn reconciler hits when a routing delta's cone misses the measured
// client set entirely — the receiver itself is returned instead of a deep
// copy. Stores are immutable once published, so sharing the receiver is
// exactly as safe as sharing the snapshot it came from.
//
// patch must share s's exact item universe, since relation rows are indexed
// by item position.
func (s *Store) PatchClients(patch *Store, cone func(Client) bool) (*Store, error) {
	if len(patch.items) != len(s.items) {
		return nil, fmt.Errorf("prefs: patch item universe has %d items, base has %d", len(patch.items), len(s.items))
	}
	for i, it := range s.items {
		if patch.items[i] != it {
			return nil, fmt.Errorf("prefs: patch item %d is %d, base has %d", i, patch.items[i], it)
		}
	}
	for _, c := range patch.keys {
		if !cone(c) {
			return nil, fmt.Errorf("prefs: patch holds client %d outside the cone", c)
		}
	}
	if len(patch.keys) == 0 {
		hit := false
		for _, c := range s.keys {
			if cone(c) {
				hit = true
				break
			}
		}
		if !hit {
			return s, nil
		}
	}
	out := &Store{
		items:  append([]Item(nil), s.items...),
		index:  make(map[Item]int, len(s.items)),
		nPairs: s.nPairs,
	}
	for i, it := range out.items {
		out.index[it] = i
	}
	// Merge the two sorted client columns: outside the cone rows come from
	// s; inside it they come from patch (or are dropped when patch lacks
	// them). Appends stay in ascending order, so every row lands via the
	// O(1) tail path.
	appendRow := func(c Client, src *Store, row int) {
		dst := out.ensureClient(c)
		copy(out.cells[dst*out.nPairs:(dst+1)*out.nPairs], src.cells[row*src.nPairs:(row+1)*src.nPairs])
	}
	si, pi := 0, 0
	for si < len(s.keys) || pi < len(patch.keys) {
		switch {
		case pi >= len(patch.keys) || (si < len(s.keys) && s.keys[si] < patch.keys[pi]):
			c := s.keys[si]
			if !cone(c) {
				appendRow(c, s, si)
			}
			si++
		case si >= len(s.keys) || patch.keys[pi] < s.keys[si]:
			appendRow(patch.keys[pi], patch, pi)
			pi++
		default: // same client in both: cone already vetted patch's clients
			appendRow(patch.keys[pi], patch, pi)
			si++
			pi++
		}
	}
	out.Compact()
	return out, nil
}
