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

// Dump exports every recorded relation in canonical (client, pair) order:
// clients ascending — the natural order of the sorted client column — and
// pairs in item order. Two stores holding the same relations dump
// identically even when their clients were recorded in different sequences
// (a full campaign vs. a cone-scoped repair that re-recorded only part of
// the client set).
func (s *Store) Dump() []DumpedRelation {
	var out []DumpedRelation
	for row, c := range s.keys {
		base := row * s.nPairs
		for a := 0; a < len(s.items); a++ {
			for b := a + 1; b < len(s.items); b++ {
				rel, winner := s.relationOf(s.cells[base+s.pairIdx(a, b)], a, b)
				if rel != RelUnknown {
					out = append(out, DumpedRelation{Client: c, I: s.items[a], J: s.items[b], Rel: rel, Winner: winner})
				}
			}
		}
	}
	return out
}

// Columns returns the store's client column and its relation column,
// NumPairs cells per client, row-major, pairs in item order. A cell is 0 for
// an unknown pair, 1 for an equal one, 2 when the first item of the pair wins
// strictly and 3 when the second does. Both are the store's own slices, for
// a caller that serializes them: they must not be written.
func (s *Store) Columns() ([]Client, []byte) { return s.keys, s.cells }

// NewStoreColumns is the inverse of Columns: a store over items whose client
// column is clients and whose relation column is cells. It takes ownership
// of both slices. It refuses columns that Columns never returns: a client
// column that is not strictly ascending, a cells column of the wrong length,
// a cell above 3, and a client whose cells are all unknown.
func NewStoreColumns(items []Item, clients []Client, cells []byte) (*Store, error) {
	s, err := NewStore(items)
	if err != nil {
		return nil, err
	}
	if !ClientColumn(clients).Ascending() {
		return nil, fmt.Errorf("prefs: client column is not strictly ascending")
	}
	if len(cells) != len(clients)*s.nPairs {
		return nil, fmt.Errorf("prefs: %d cells for %d clients of %d pairs", len(cells), len(clients), s.nPairs)
	}
	for row, c := range clients {
		known := false
		for _, v := range cells[row*s.nPairs : (row+1)*s.nPairs] {
			if v > cellHighWins {
				return nil, fmt.Errorf("prefs: client %d has cell %d", c, v)
			}
			known = known || v != cellUnknown
		}
		if !known {
			return nil, fmt.Errorf("prefs: client %d has no known relation", c)
		}
	}
	s.keys, s.cells = clients, cells
	return s, nil
}
