package prefs

import "fmt"

// DumpedRelation is one (client, pair) relation in exportable form.
type DumpedRelation struct {
	Client Client   `json:"c"`
	I      Item     `json:"i"`
	J      Item     `json:"j"`
	Rel    Relation `json:"r"`
	// Winner is meaningful for RelStrict.
	Winner Item `json:"w,omitempty"`
}

// ForEachRelation calls fn for every recorded relation in canonical
// (client, pair) order — clients ascending (the order of the sorted client
// column), pairs in item order. It is the streaming backbone of Dump and of
// campaign persistence: one relation is materialized at a time, so a caller
// serializing an internet-scale store never holds the full relation list in
// memory.
func (s *Store) ForEachRelation(fn func(DumpedRelation)) {
	for row, c := range s.keys {
		base := row * s.nPairs
		for a := 0; a < len(s.items); a++ {
			for b := a + 1; b < len(s.items); b++ {
				rel, winner := s.relationOf(s.cells[base+s.pairIdx(a, b)], a, b)
				if rel == RelUnknown {
					continue
				}
				fn(DumpedRelation{
					Client: c, I: s.items[a], J: s.items[b],
					Rel: rel, Winner: winner,
				})
			}
		}
	}
}

// NumRelations returns the number of recorded relations — the length of the
// slice Dump would build — without materializing it.
func (s *Store) NumRelations() int {
	n := 0
	for _, c := range s.cells {
		if c != cellUnknown {
			n++
		}
	}
	return n
}

// Dump exports every recorded relation, in canonical (client, pair) order,
// for persistence. Clients are emitted ascending — the natural order of the
// sorted client column — so two stores holding the same relations dump
// byte-identically even when their clients were recorded in different
// sequences (a full campaign vs. a cone-scoped repair that re-recorded only
// part of the client set).
func (s *Store) Dump() []DumpedRelation {
	var out []DumpedRelation
	s.ForEachRelation(func(r DumpedRelation) { out = append(out, r) })
	return out
}

// Restore installs previously dumped relations. The store's item universe
// must contain every referenced item.
func (s *Store) Restore(rels []DumpedRelation) error {
	for _, r := range rels {
		ii, ok := s.index[r.I]
		if !ok {
			return fmt.Errorf("prefs: restore references unknown item %d", r.I)
		}
		jj, ok := s.index[r.J]
		if !ok {
			return fmt.Errorf("prefs: restore references unknown item %d", r.J)
		}
		if ii == jj {
			return fmt.Errorf("prefs: restore with degenerate pair (%d, %d)", r.I, r.J)
		}
		winnerIdx := -1
		switch r.Rel {
		case RelStrict:
			if r.Winner != r.I && r.Winner != r.J {
				return fmt.Errorf("prefs: restore winner %d not in pair (%d, %d)", r.Winner, r.I, r.J)
			}
			winnerIdx = s.index[r.Winner]
		case RelEqual:
			// no winner
		default:
			return fmt.Errorf("prefs: restore with relation %v", r.Rel)
		}
		row := s.ensureClient(r.Client)
		s.set(row, ii, jj, r.Rel, winnerIdx)
	}
	return nil
}
