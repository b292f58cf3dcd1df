// Package snapimmut is an anyoptlint self-test fixture for the snapshot
// immutability check: a Snapshot published for lock-free readers may be
// mutated only by its sanctioned writers, and no mutable alias may leak out
// of it. The fixture's rule names publish as the sole writer;
// newSnapshot is sanctioned implicitly as a constructor.
package snapimmut

// Snapshot mirrors the shape that matters: scalar fields, reference-typed
// fields, and a pointer into owned state.
type Snapshot struct {
	Gen   uint64
	Order []int
	Sizes map[int]int
	Meta  *Meta
}

// Meta is snapshot-owned mutable state behind a pointer.
type Meta struct{ Name string }

// Sys owns the published snapshot.
type Sys struct{ cur *Snapshot }

// holder is an unrelated mutable struct a leak could hide in.
type holder struct{ sizes map[int]int }

// leakedSizes is a package-level alias sink.
var leakedSizes map[int]int

// publish is the sanctioned writer: construction and field writes here are
// the copy-on-write publish path.
func publish(sys *Sys, order []int) *Snapshot {
	snap := &Snapshot{Order: append([]int(nil), order...), Sizes: map[int]int{}, Meta: &Meta{}}
	snap.Gen = 1
	snap.Sizes[0] = len(order)
	sys.cur = snap
	return snap
}

// newSnapshot returns the snapshot type, so it is a constructor and may
// mutate freely.
func newSnapshot() *Snapshot {
	s := &Snapshot{Sizes: map[int]int{}}
	s.Gen = 1
	return s
}

func mutateField(snap *Snapshot) {
	snap.Gen = 2 // want "write to Snapshot.Gen outside its sanctioned writers"
}

func bumpField(snap *Snapshot) {
	snap.Gen++ // want "write to Snapshot.Gen outside its sanctioned writers"
}

func deepStores(snap *Snapshot) {
	snap.Sizes[1] = 2     // want "store through snapshot-owned"
	snap.Order[0] = 9     // want "store through snapshot-owned"
	snap.Meta.Name = "x"  // want "store through snapshot-owned"
	delete(snap.Sizes, 3) // want "delete on snapshot-owned"
}

func overwrite(snap *Snapshot) {
	*snap = Snapshot{} // want "store through snapshot-owned"
}

// taintedStore aliases a snapshot-owned map into a local first; the store
// through the alias must still be caught.
func taintedStore(snap *Snapshot) {
	q := snap.Sizes
	q[7] = 1 // want "store through snapshot-owned"
}

func leakReturn(snap *Snapshot) map[int]int {
	return snap.Sizes // want "returns snapshot-owned"
}

func leakComposite(snap *Snapshot) holder {
	return holder{sizes: snap.Sizes} // want "composite literal captures snapshot-owned"
}

func leakStore(snap *Snapshot, h *holder) {
	h.sizes = snap.Sizes // want "stores snapshot-owned"
}

func leakGlobal(snap *Snapshot) {
	leakedSizes = snap.Sizes // want "into package variable"
}

// reads shows the permitted read-only traffic: field reads, ranging,
// passing owned state to calls, and copies into locally-owned structures.
func reads(snap *Snapshot) uint64 {
	total := snap.Gen
	for _, v := range snap.Order {
		total += uint64(v)
	}
	local := make(map[int]int, len(snap.Sizes))
	for k := range snap.Sizes {
		local[k] = k
	}
	return total + uint64(len(local)) + uint64(consume(snap.Order))
}

func consume(xs []int) int { return len(xs) }

var _ = newSnapshot
var _ = publish
