package prefs

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// refStore is the nested-map reference model: the exact semantics of the
// pre-columnar Store (map[Client]*row backing, first-record insertion,
// sorted dump). The columnar store must be observationally identical to it
// under every operation sequence — the differential property this file
// drives.
type refStore struct {
	items []Item
	index map[Item]int
	order []Client
	rows  map[Client][]refRel
}

type refRel struct {
	rel    Relation
	winner Item
}

func newRef(items []Item) *refStore {
	r := &refStore{items: append([]Item(nil), items...), index: map[Item]int{}, rows: map[Client][]refRel{}}
	for i, it := range r.items {
		r.index[it] = i
	}
	return r
}

func (r *refStore) nPairs() int { return len(r.items) * (len(r.items) - 1) / 2 }

func (r *refStore) pairIdx(a, b int) int {
	if a > b {
		a, b = b, a
	}
	n := len(r.items)
	return a*(2*n-a-1)/2 + (b - a - 1)
}

func (r *refStore) row(c Client) []refRel {
	if r.rows[c] == nil {
		r.rows[c] = make([]refRel, r.nPairs())
		r.order = append(r.order, c)
	}
	return r.rows[c]
}

func (r *refStore) recordOrdered(c Client, i, j, wI, wJ Item) {
	idx := r.pairIdx(r.index[i], r.index[j])
	if wI == wJ {
		r.row(c)[idx] = refRel{RelStrict, wI}
	} else {
		r.row(c)[idx] = refRel{RelEqual, 0}
	}
}

func (r *refStore) recordSimultaneous(c Client, i, j, w Item) {
	r.row(c)[r.pairIdx(r.index[i], r.index[j])] = refRel{RelStrict, w}
}

func (r *refStore) relation(c Client, i, j Item) (Relation, Item) {
	row := r.rows[c]
	if row == nil {
		return RelUnknown, 0
	}
	pr := row[r.pairIdx(r.index[i], r.index[j])]
	if pr.rel != RelStrict {
		return pr.rel, 0
	}
	return pr.rel, pr.winner
}

func (r *refStore) dump() []DumpedRelation {
	clients := append([]Client(nil), r.order...)
	for x := 1; x < len(clients); x++ { // insertion sort: small n
		for y := x; y > 0 && clients[y-1] > clients[y]; y-- {
			clients[y-1], clients[y] = clients[y], clients[y-1]
		}
	}
	var out []DumpedRelation
	for _, c := range clients {
		row := r.rows[c]
		for a := 0; a < len(r.items); a++ {
			for b := a + 1; b < len(r.items); b++ {
				pr := row[r.pairIdx(a, b)]
				if pr.rel == RelUnknown {
					continue
				}
				out = append(out, DumpedRelation{Client: c, I: r.items[a], J: r.items[b], Rel: pr.rel, Winner: pr.winner})
			}
		}
	}
	return out
}

// patchClients mirrors the pre-columnar PatchClients semantics.
func (r *refStore) patchClients(patch *refStore, cone func(Client) bool) *refStore {
	out := newRef(r.items)
	for _, c := range r.order {
		if cone(c) {
			if row := patch.rows[c]; row != nil {
				copy(out.row(c), row)
			}
			continue
		}
		copy(out.row(c), r.rows[c])
	}
	for _, c := range patch.order {
		if out.rows[c] == nil {
			copy(out.row(c), patch.rows[c])
		}
	}
	return out
}

// checkEquiv compares every observable of the columnar store against the
// reference: client enumeration, point lookups (including never-recorded
// clients and pairs), and the canonical dump.
func checkEquiv(t *testing.T, step int, s *Store, r *refStore, probeClients []Client) {
	t.Helper()
	gotClients := s.Clients()
	wantClients := append([]Client(nil), r.order...)
	for x := 1; x < len(wantClients); x++ {
		for y := x; y > 0 && wantClients[y-1] > wantClients[y]; y-- {
			wantClients[y-1], wantClients[y] = wantClients[y], wantClients[y-1]
		}
	}
	if !reflect.DeepEqual(gotClients, wantClients) && !(len(gotClients) == 0 && len(wantClients) == 0) {
		t.Fatalf("step %d: clients %v, want %v", step, gotClients, wantClients)
	}
	for _, c := range probeClients {
		cp := s.Get(c)
		if (cp == nil) != (r.rows[c] == nil) {
			t.Fatalf("step %d: Get(%d) nil-ness mismatch", step, c)
		}
		if cp == nil {
			continue
		}
		for a := 0; a < len(r.items); a++ {
			for b := a + 1; b < len(r.items); b++ {
				gr, gw := cp.Relation(r.items[a], r.items[b])
				wr, ww := r.relation(c, r.items[a], r.items[b])
				if gr != wr || gw != ww {
					t.Fatalf("step %d: relation(%d, %d, %d) = (%v, %d), want (%v, %d)",
						step, c, r.items[a], r.items[b], gr, gw, wr, ww)
				}
			}
		}
	}
	if got, want := s.Dump(), r.dump(); !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d: dump mismatch:\n got %v\nwant %v", step, got, want)
	}
}

// TestColumnarDifferential drives random append / out-of-order insert /
// patch / dump / restore sequences through the columnar store and the
// nested-map reference model in lockstep. Ten seeds, several hundred ops
// each; any divergence in point lookups or canonical export fails.
func TestColumnarDifferential(t *testing.T) {
	items := []Item{40, 2, 17, 9}
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := mustStore(t, items...)
		ref := newRef(items)
		clientPool := make([]Client, 40)
		for i := range clientPool {
			clientPool[i] = Client(rng.Intn(5000)) // dups force mid-inserts and overwrites
		}
		for step := 0; step < 400; step++ {
			c := clientPool[rng.Intn(len(clientPool))]
			a := rng.Intn(len(items))
			b := rng.Intn(len(items) - 1)
			if b >= a {
				b++
			}
			i, j := items[a], items[b]
			switch rng.Intn(10) {
			case 0, 1, 2, 3: // ordered experiment
				wI, wJ := i, i
				if rng.Intn(2) == 0 {
					wI = j
				}
				if rng.Intn(2) == 0 {
					wJ = j
				}
				if err := s.RecordOrdered(c, i, j, wI, wJ); err != nil {
					t.Fatal(err)
				}
				ref.recordOrdered(c, i, j, wI, wJ)
			case 4, 5, 6: // naive experiment
				w := i
				if rng.Intn(2) == 0 {
					w = j
				}
				if err := s.RecordSimultaneous(c, i, j, w); err != nil {
					t.Fatal(err)
				}
				ref.recordSimultaneous(c, i, j, w)
			case 7: // export → import round trip replaces the store
				clients, cells := s.Columns()
				fresh, err := NewStoreColumns(s.Items(), slices.Clone(clients), slices.Clone(cells))
				if err != nil {
					t.Fatal(err)
				}
				s = fresh
			case 8: // patch a random cone with a random sub-campaign
				cut := Client(rng.Intn(5000))
				cone := func(cl Client) bool { return cl >= cut }
				p := mustStore(t, items...)
				refP := newRef(items)
				for k := 0; k < rng.Intn(8); k++ {
					pc := clientPool[rng.Intn(len(clientPool))]
					if !cone(pc) {
						continue
					}
					w := i
					if rng.Intn(2) == 0 {
						w = j
					}
					if err := p.RecordSimultaneous(pc, i, j, w); err != nil {
						t.Fatal(err)
					}
					refP.recordSimultaneous(pc, i, j, w)
				}
				patched, err := s.PatchClients(p, cone)
				if err != nil {
					t.Fatal(err)
				}
				s = patched
				ref = ref.patchClients(refP, cone)
			case 9: // empty-cone patch must hand the receiver back
				empty := mustStore(t, items...)
				patched, err := s.PatchClients(empty, func(Client) bool { return false })
				if err != nil {
					t.Fatal(err)
				}
				if patched != s {
					t.Fatalf("step %d: empty-cone patch did not return the receiver", step)
				}
			}
			if step%37 == 0 || step == 399 {
				checkEquiv(t, step, s, ref, clientPool)
			}
		}
		checkEquiv(t, -1, s, ref, clientPool)
	}
}

// TestColumnarOutOfOrderInsert pins the mid-insert path directly: recording
// clients in descending order must shift rows without corrupting earlier
// ones.
func TestColumnarOutOfOrderInsert(t *testing.T) {
	s := mustStore(t, 1, 2)
	for c := Client(50); c > 0; c -= 7 {
		w := Item(1)
		if c%2 == 0 {
			w = 2
		}
		if err := s.RecordSimultaneous(c, 1, 2, w); err != nil {
			t.Fatal(err)
		}
	}
	for c := Client(50); c > 0; c -= 7 {
		w := Item(1)
		if c%2 == 0 {
			w = 2
		}
		rel, got := s.Get(c).Relation(1, 2)
		if rel != RelStrict || got != w {
			t.Fatalf("client %d: got (%v, %d), want (strict, %d)", c, rel, got, w)
		}
	}
	cs := s.Clients()
	for i := 1; i < len(cs); i++ {
		if cs[i-1] >= cs[i] {
			t.Fatalf("client column not strictly ascending: %v", cs)
		}
	}
}

// TestSeekMatchesBinarySearch walks a merge over the key column the way the
// read side does — ascending clients, some absent, each result fed back as the
// next start — and holds every step to the point lookup.
func TestSeekMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := mustStore(t, 1, 2)
	for c := 0; c < 400; c++ {
		if rng.Intn(3) > 0 {
			if err := s.RecordSimultaneous(Client(3*c), 1, 2, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	at := 0
	for c := Client(-2); c < 1210; c++ {
		row, ok := s.Seek(at, c)
		wantRow, wantOK := s.keys.Find(c)
		if row != wantRow || ok != wantOK {
			t.Fatalf("Seek(%d, %d) = %d, %v; binary search %d, %v", at, c, row, ok, wantRow, wantOK)
		}
		if ok && s.ClientAt(row) != c {
			t.Fatalf("ClientAt(%d) = %d, want %d", row, s.ClientAt(row), c)
		}
		at = row
	}
	if at != s.NumClients() {
		t.Fatalf("walk ended at row %d of %d", at, s.NumClients())
	}
}
