package splpo

// Incremental delta evaluation for the anytime local-search solver.
//
// A DeltaEval maintains, for one Instance and one evolving open-site set,
// every client's current assignment (as a position in its own ranking) plus
// the aggregate statistics an evaluation reports. An inverted index — for
// each site, the (client, rank position) pairs that rank it — lets a site
// open/close move touch only the clients whose assignment can actually
// change: opening s reassigns exactly the clients that rank s above their
// current site, closing s reassigns exactly the clients currently served by
// s. Every mutation is journaled, so a candidate move can be applied, its
// effect read off the running aggregates, and rolled back — all without
// allocating in steady state.
//
// Aggregates are maintained by compensated addition and subtraction of the
// affected clients' contributions, so after long move sequences they can
// drift from a from-scratch evaluation by floating-point rounding. The
// solver treats DeltaEval as search guidance and reports final results from
// a full EvaluateSet; the differential tests bound the drift at ~1e-9
// relative over thousands of moves.

// clientRef is one inverted-index entry: client ranks the indexed site at
// position pos of its ranking.
type clientRef struct {
	client int32
	pos    int32
}

// deltaOp is one journaled mutation.
type deltaOp struct {
	kind   uint8 // opOpenSite, opCloseSite, opAssign
	site   int32
	client int32
	oldPos int32
}

const (
	opOpenSite = iota
	opCloseSite
	opAssign
)

// DeltaEval is the incremental evaluator. Create one with NewDeltaEval,
// mutate it with Open/Close, checkpoint with Mark and undo with RollbackTo.
type DeltaEval struct {
	in *Instance

	// siteRefs[s] is the inverted index: the clients ranking site s, in
	// ascending client order (Patch preserves the order on churn).
	siteRefs [][]clientRef

	// assignedPos[c] is the position in client c's ranking of its current
	// site, or -1 when no acceptable site is open.
	assignedPos []int32

	open      SiteSet
	openCount int

	finiteCost float64
	weight     float64
	served     int
	capExcess  float64
	siteLoad   []float64

	journal []deltaOp

	// work counts client touches (index entries scanned plus ranking steps
	// walked) — the solver's evaluation-budget unit.
	work int64
}

// NewDeltaEval builds the evaluator for in, assigning every client against
// the given initial open set. The instance must already be validated; the
// initial set is copied.
func NewDeltaEval(in *Instance, open SiteSet) *DeltaEval {
	d := &DeltaEval{
		in:          in,
		siteRefs:    make([][]clientRef, in.NumSites),
		assignedPos: make([]int32, len(in.Clients)),
		open:        NewSiteSet(in.NumSites),
		siteLoad:    make([]float64, in.NumSites),
	}
	counts := make([]int32, in.NumSites)
	for i := range in.Clients {
		for _, s := range in.Clients[i].Ranking {
			counts[s]++
		}
	}
	// One backing array for the whole index; per-site slices carved from it
	// at exact capacity. Patch appends per site, which copies a site's slice
	// out of the shared block on first growth — exactly the sites that
	// churned, leaving the rest of the index in one contiguous block.
	total := 0
	for _, c := range counts {
		total += int(c)
	}
	backing := make([]clientRef, total)
	off := 0
	for s := 0; s < in.NumSites; s++ {
		n := int(counts[s])
		d.siteRefs[s] = backing[off : off : off+n]
		off += n
	}
	for i := range in.Clients {
		for p, s := range in.Clients[i].Ranking {
			d.siteRefs[s] = append(d.siteRefs[s], clientRef{client: int32(i), pos: int32(p)})
		}
	}
	d.Reset(open)
	return d
}

// Reset reassigns every client from scratch against the given open set and
// clears the journal — an exact resynchronization point.
func (d *DeltaEval) Reset(open SiteSet) {
	d.open.Clear()
	open.ForEach(func(s int) { d.open.Add(s) })
	d.openCount = d.open.Count()
	d.finiteCost, d.weight, d.capExcess = 0, 0, 0
	d.served = 0
	for i := range d.siteLoad {
		d.siteLoad[i] = 0
	}
	d.journal = d.journal[:0]
	for i := range d.in.Clients {
		c := &d.in.Clients[i]
		d.assignedPos[i] = -1
		for p, s := range c.Ranking {
			if d.open.Has(s) {
				d.assignedPos[i] = int32(p)
				w := c.weight()
				d.finiteCost += w * c.RankCost[p]
				d.weight += w
				d.served++
				d.siteLoad[s] += c.Load
				break
			}
		}
	}
	if d.in.Cap != nil {
		d.open.ForEach(func(s int) {
			if d.siteLoad[s] > d.in.Cap[s] {
				d.capExcess += d.siteLoad[s] - d.in.Cap[s]
			}
		})
	}
}

// Stats returns the current aggregates in O(1).
func (d *DeltaEval) Stats() Stats {
	return Stats{
		FiniteCost: d.finiteCost,
		Weight:     d.weight,
		Served:     d.served,
		Unserved:   len(d.in.Clients) - d.served,
		CapExcess:  d.capExcess,
		Open:       d.openCount,
	}
}

// OpenSet returns a read-only view of the current open set. The returned
// set shares storage with the evaluator: callers must Clone before mutating.
func (d *DeltaEval) OpenSet() SiteSet { return d.open }

// OpenCount returns the number of open sites.
func (d *DeltaEval) OpenCount() int { return d.openCount }

// Work returns the cumulative client-touch count — the evaluation budget
// unit: one unit per inverted-index entry scanned or ranking step walked.
func (d *DeltaEval) Work() int64 { return d.work }

// SiteLoad returns site s's current load.
func (d *DeltaEval) SiteLoad(s int) float64 { return d.siteLoad[s] }

// AssignedPos returns client c's assignment as a position in its ranking,
// or -1 when unserved.
func (d *DeltaEval) AssignedPos(c int) int { return int(d.assignedPos[c]) }

// Mark returns a journal checkpoint for RollbackTo.
func (d *DeltaEval) Mark() int { return len(d.journal) }

// Commit discards rollback history; prior marks become invalid.
func (d *DeltaEval) Commit() { d.journal = d.journal[:0] }

// excessDelta adjusts capExcess for site s's load moving from oldLoad to
// the current siteLoad[s]; only open, capped sites contribute.
func (d *DeltaEval) excessDelta(s int, oldLoad float64) {
	if d.in.Cap == nil || !d.open.Has(s) {
		return
	}
	cap := d.in.Cap[s]
	if oldLoad > cap {
		d.capExcess -= oldLoad - cap
	}
	if l := d.siteLoad[s]; l > cap {
		d.capExcess += l - cap
	}
}

// assign moves client c to ranking position newPos (-1 = unserved),
// journaling the old position and updating every aggregate.
func (d *DeltaEval) assign(c int32, newPos int32) {
	oldPos := d.assignedPos[c]
	if oldPos == newPos {
		return
	}
	d.journal = append(d.journal, deltaOp{kind: opAssign, client: c, oldPos: oldPos})
	d.applyAssign(c, oldPos, newPos)
}

// applyAssign is assign without journaling — shared by rollback.
func (d *DeltaEval) applyAssign(c int32, oldPos, newPos int32) {
	cl := &d.in.Clients[c]
	w := cl.weight()
	if oldPos >= 0 {
		s := cl.Ranking[oldPos]
		d.finiteCost -= w * cl.RankCost[oldPos]
		d.weight -= w
		d.served--
		old := d.siteLoad[s]
		d.siteLoad[s] -= cl.Load
		d.excessDelta(s, old)
	}
	if newPos >= 0 {
		s := cl.Ranking[newPos]
		d.finiteCost += w * cl.RankCost[newPos]
		d.weight += w
		d.served++
		old := d.siteLoad[s]
		d.siteLoad[s] += cl.Load
		d.excessDelta(s, old)
	}
	d.assignedPos[c] = newPos
}

// Open opens site s, reassigning exactly the clients that rank s above
// their current site (or are unserved). Reports whether the set changed.
func (d *DeltaEval) Open(s int) bool {
	if s < 0 || s >= d.in.NumSites || d.open.Has(s) {
		return false
	}
	d.journal = append(d.journal, deltaOp{kind: opOpenSite, site: int32(s)})
	d.open.Add(s)
	d.openCount++
	for _, ref := range d.siteRefs[s] {
		d.work++
		cur := d.assignedPos[ref.client]
		if cur < 0 || ref.pos < cur {
			d.assign(ref.client, ref.pos)
		}
	}
	return true
}

// Close closes site s, reassigning each client it served to the next open
// site in that client's ranking (or to unserved). Reports whether the set
// changed.
func (d *DeltaEval) Close(s int) bool {
	if s < 0 || s >= d.in.NumSites || !d.open.Has(s) {
		return false
	}
	d.journal = append(d.journal, deltaOp{kind: opCloseSite, site: int32(s)})
	// Remove the site's entire cap excess up front; the per-client load
	// changes below see a closed site and skip excess tracking, leaving the
	// invariant intact once the load drains to zero.
	if d.in.Cap != nil && d.siteLoad[s] > d.in.Cap[s] {
		d.capExcess -= d.siteLoad[s] - d.in.Cap[s]
	}
	d.open.Remove(s)
	d.openCount--
	for _, ref := range d.siteRefs[s] {
		d.work++
		if d.assignedPos[ref.client] != ref.pos {
			continue
		}
		cl := &d.in.Clients[ref.client]
		newPos := int32(-1)
		for p := int(ref.pos) + 1; p < len(cl.Ranking); p++ {
			d.work++
			if d.open.Has(cl.Ranking[p]) {
				newPos = int32(p)
				break
			}
		}
		d.assign(ref.client, newPos)
	}
	return true
}

// RollbackTo undoes every mutation journaled after mark (from Mark).
func (d *DeltaEval) RollbackTo(mark int) {
	for len(d.journal) > mark {
		op := d.journal[len(d.journal)-1]
		d.journal = d.journal[:len(d.journal)-1]
		switch op.kind {
		case opAssign:
			d.applyAssign(op.client, d.assignedPos[op.client], op.oldPos)
		case opOpenSite:
			// All assignments made by the Open have already been undone, so
			// the site's load is back to (numerically) zero; drop whatever
			// residual excess it carries and close it.
			s := int(op.site)
			if d.in.Cap != nil && d.siteLoad[s] > d.in.Cap[s] {
				d.capExcess -= d.siteLoad[s] - d.in.Cap[s]
			}
			d.open.Remove(s)
			d.openCount--
		case opCloseSite:
			// All reassignments away from the site have been undone, so its
			// load is restored; reopen it and re-add its excess.
			s := int(op.site)
			d.open.Add(s)
			d.openCount++
			if d.in.Cap != nil && d.siteLoad[s] > d.in.Cap[s] {
				d.capExcess += d.siteLoad[s] - d.in.Cap[s]
			}
		}
	}
}

// Patch rewires the evaluator to a churned instance in place: newIn must
// have the same shape (site count, client count, Cap identity) with only the
// clients listed in changed differing from the instance the evaluator was
// built on. The inverted index and the changed clients' assignments are
// updated in O(affected index entries); everything else is untouched. The
// journal is committed — prior marks become invalid. Patch reports false
// (leaving the evaluator unchanged) when the shapes differ, in which case
// the caller must rebuild with NewDeltaEval.
func (d *DeltaEval) Patch(newIn *Instance, changed []int) bool {
	if newIn.NumSites != d.in.NumSites || len(newIn.Clients) != len(d.in.Clients) {
		return false
	}
	if (newIn.Cap == nil) != (d.in.Cap == nil) {
		return false
	}
	for _, c := range changed {
		if c < 0 || c >= len(newIn.Clients) {
			return false
		}
	}
	d.Commit()
	// Phase 1 — against the old instance: retire each changed client's cost,
	// load, and index entries.
	for _, c := range changed {
		d.applyAssign(int32(c), d.assignedPos[c], -1)
		old := &d.in.Clients[c]
		for _, s := range old.Ranking {
			d.work++
			refs := d.siteRefs[s]
			for i := range refs {
				if refs[i].client == int32(c) {
					d.siteRefs[s] = append(refs[:i], refs[i+1:]...)
					break
				}
			}
		}
	}
	// Phase 2 — against the new instance: index the new rankings and
	// reassign each changed client to its best open site.
	d.in = newIn
	for _, c := range changed {
		cl := &newIn.Clients[c]
		newPos := int32(-1)
		for p, s := range cl.Ranking {
			d.work++
			refs := d.siteRefs[s]
			// Insert keeping ascending client order so move iteration stays
			// deterministic across patch histories.
			i := len(refs)
			for i > 0 && refs[i-1].client > int32(c) {
				i--
			}
			refs = append(refs, clientRef{})
			copy(refs[i+1:], refs[i:])
			refs[i] = clientRef{client: int32(c), pos: int32(p)}
			d.siteRefs[s] = refs
			if newPos < 0 && d.open.Has(s) {
				newPos = int32(p)
			}
		}
		d.applyAssign(int32(c), -1, newPos)
	}
	return true
}
