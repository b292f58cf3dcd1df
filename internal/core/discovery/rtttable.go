package discovery

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"anyopt/internal/bgp"
	"anyopt/internal/core/prefs"
)

// RTTTable holds site↔client RTTs from singleton experiments, columnar:
// one sorted client-ID column shared by every site, plus one parallel value
// column per site (RTT nanoseconds, rttMissing for unmeasured cells). Point
// lookups binary-search both sorted columns; the whole table is a handful of
// contiguous slabs, which is what lets an internet-scale campaign (100k
// clients) fit under a fixed memory ceiling where the former
// map[int]map[prefs.Client]time.Duration representation spent an order of
// magnitude more on hash buckets and per-row map headers.
type RTTTable struct {
	// sites is the sorted site-ID column.
	sites []int
	// clients is the sorted client-ID column: the clients some site
	// measured.
	clients prefs.ClientColumn
	// cells[si*len(clients)+ci] is the RTT in nanoseconds from sites[si] to
	// clients[ci], or rttMissing when that cell was never measured. Every
	// value column is a window of this one allocation: a single large
	// allocation is page-rounded by the allocator, where per-column slabs
	// each eat the gap to their size class — measurable bytes-per-client at
	// campaign scale.
	cells []int64
	// counts[si] is the number of measured cells in col(si).
	counts []int
}

// rttMissing marks an unmeasured (site, client) cell. Real RTTs are
// non-negative, so the sentinel can never collide with a measurement.
const rttMissing int64 = -1

// missingRTTs returns an RTT column of n unmeasured cells.
func missingRTTs(n int) []int64 {
	col := make([]int64, n)
	for i := range col {
		col[i] = rttMissing
	}
	return col
}

// siteIdx binary-searches the site column; returns -1 when absent.
func (t *RTTTable) siteIdx(site int) int {
	i := sort.SearchInts(t.sites, site)
	if i < len(t.sites) && t.sites[i] == site {
		return i
	}
	return -1
}

// col is the value column of the site at index si.
func (t *RTTTable) col(si int) []int64 {
	n := len(t.clients)
	return t.cells[si*n : (si+1)*n : (si+1)*n]
}

// RTT returns the measured RTT between site and client.
func (t *RTTTable) RTT(site int, c prefs.Client) (time.Duration, bool) {
	si := t.siteIdx(site)
	if si < 0 {
		return 0, false
	}
	ci, ok := t.clients.Find(c)
	if !ok {
		return 0, false
	}
	return t.At(si, ci)
}

// Column resolves a site to its value column for At, -1 when the table has no
// such site — once per configuration, where RTT searches per cell.
func (t *RTTTable) Column(site int) int { return t.siteIdx(site) }

// Seek is prefs.ClientColumn.Seek on the table's client column.
func (t *RTTTable) Seek(from int, c prefs.Client) (int, bool) { return t.clients.Seek(from, c) }

// At is RTT by position: the cell of a Column (col ≥ 0) at a row Seek found.
func (t *RTTTable) At(col, row int) (time.Duration, bool) {
	ns := t.cells[col*len(t.clients)+row]
	if ns == rttMissing {
		return 0, false
	}
	return time.Duration(ns), true
}

// Sites returns the site IDs present in the table, ascending.
func (t *RTTTable) Sites() []int { return append([]int(nil), t.sites...) }

// Clients returns the number of clients measured for the given site.
func (t *RTTTable) Clients(site int) int {
	si := t.siteIdx(site)
	if si < 0 {
		return 0
	}
	return t.counts[si]
}

// MeanUnicast returns the mean RTT from site to all measured clients — the
// metric the paper's greedy baseline ranks sites by.
func (t *RTTTable) MeanUnicast(site int) time.Duration {
	si := t.siteIdx(site)
	if si < 0 || t.counts[si] == 0 {
		return 0
	}
	var sum time.Duration
	for _, ns := range t.col(si) {
		if ns != rttMissing {
			sum += time.Duration(ns)
		}
	}
	return sum / time.Duration(t.counts[si])
}

// newRTTTable builds the columnar table from dense per-site RTT columns:
// rows[i] belongs to siteIDs[i] and holds one cell per position of clients
// (rttMissing where unmeasured; a nil row is all missing). The client column
// is the sorted set of clients some site measured; sites keep every ID handed
// in, including sites whose row came back empty (quarantined sites still
// occupy their column). Campaign targets arrive client-sorted, but any
// position order — and a client repeated across positions, where the later
// measured cell wins — builds the same table.
func newRTTTable(siteIDs []int, clients []prefs.Client, rows [][]int64) *RTTTable {
	order := make([]int, len(siteIDs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return siteIDs[order[a]] < siteIDs[order[b]] })

	measured := make([]bool, len(clients))
	n := 0
	for _, row := range rows {
		for p, ns := range row {
			if ns != rttMissing && !measured[p] {
				measured[p] = true
				n++
			}
		}
	}
	keys := make([]prefs.Client, 0, n)
	for p, ok := range measured {
		if ok {
			keys = append(keys, clients[p])
		}
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)

	t := &RTTTable{
		sites:   make([]int, len(siteIDs)),
		clients: keys,
		cells:   missingRTTs(len(siteIDs) * len(keys)),
		counts:  make([]int, len(siteIDs)),
	}
	// cell[p] is position p's index in the client column, resolved once per
	// position rather than once per cell.
	cell := make([]int32, len(clients))
	for p, ok := range measured {
		if ok {
			ci, _ := t.clients.Find(clients[p])
			cell[p] = int32(ci)
		}
	}
	for si, oi := range order {
		t.sites[si] = siteIDs[oi]
		col := t.col(si)
		for p, ns := range rows[oi] {
			if ns == rttMissing {
				continue
			}
			if col[cell[p]] == rttMissing {
				t.counts[si]++
			}
			col[cell[p]] = ns
		}
	}
	return t
}

// rttTable builds the campaign RTT table from per-site RTT columns over the
// target positions, and quarantines sites whose singleton experiment
// produced no responses at all — with fault injection enabled, the signature
// of a blacked-out site. Fault-free campaigns never quarantine: an empty row
// there is a measurement bug worth surfacing downstream, not an outage.
func (d *Discovery) rttTable(siteIDs []int, rows [][]int64) *RTTTable {
	clients := make([]prefs.Client, len(d.TB.Topo.Targets))
	for p, tg := range d.TB.Topo.Targets {
		clients[p] = prefs.Client(tg.AS)
	}
	t := newRTTTable(siteIDs, clients, rows)
	// Under a target filter an empty (or tiny) row says nothing about the
	// site; cone repairs inherit quarantine from the snapshot they patch via
	// RestoreQuarantine.
	if d.Cfg.Faults.Enabled() && d.Cfg.TargetFilter == nil {
		for _, id := range siteIDs {
			if t.Clients(id) == 0 {
				d.QuarantineSite(id, "no RTT responses in singleton experiment")
			}
		}
	}
	return t
}

// MeasureRTTs runs one singleton experiment per site (§4.5 step 1): announce
// the prefix from that site alone, then measure the RTT from every target.
func (d *Discovery) MeasureRTTs(siteIDs []int) (*RTTTable, error) {
	for _, id := range siteIDs {
		if d.TB.Site(id) == nil {
			return nil, fmt.Errorf("discovery: unknown site %d", id)
		}
	}
	sweeps := d.runBatch("rtt", len(siteIDs), func(e *Exp, i int) Sweep {
		sim := e.sim()
		d.TB.NewDeployment(sim, 0).AnnounceSites(siteIDs[i])
		return e.measure(e.prober(sim), d.TB.Site(siteIDs[i]), false, true, 0)
	})
	d.Experiments += len(siteIDs)
	rows := make([][]int64, len(sweeps))
	for i, sw := range sweeps {
		rows[i] = sw.RTT
	}
	return d.rttTable(siteIDs, rows), nil
}

// MeasureRTTsParallel is MeasureRTTs with the §4.5 parallelization: up to
// one singleton experiment per test anycast prefix runs in the same
// experiment slot, dividing campaign wall-clock by the prefix count (the
// paper runs four prefixes to turn 1000 hours into 250). The per-site
// results match serial measurement up to race and noise effects. Slots, each
// a whole simulation, additionally fan out across the worker pool.
func (d *Discovery) MeasureRTTsParallel(siteIDs []int) (*RTTTable, error) {
	nPrefixes := len(d.TB.AnycastAddrs)
	if nPrefixes == 0 {
		return nil, fmt.Errorf("discovery: testbed has no anycast prefixes")
	}
	for _, id := range siteIDs {
		if d.TB.Site(id) == nil {
			return nil, fmt.Errorf("discovery: unknown site %d", id)
		}
	}
	nSlots := (len(siteIDs) + nPrefixes - 1) / nPrefixes
	nTargets := len(d.TB.Topo.Targets)
	group := func(slot int) []int {
		return siteIDs[slot*nPrefixes : min((slot+1)*nPrefixes, len(siteIDs))]
	}
	sweeps := d.runBatch("rttpar", nSlots, func(e *Exp, slot int) Sweep {
		sim := e.sim()
		// One prefix per site, announced simultaneously: distinct prefixes
		// never interact, so a slot carries len(group) experiments.
		for i, id := range group(slot) {
			sim.Announce(bgp.PrefixID(i), d.TB.Origin, d.TB.Site(id).TransitLink, 0)
		}
		sim.Converge()
		out := Sweep{RTT: make([]int64, 0, len(group(slot))*nTargets)}
		for i, id := range group(slot) {
			p := e.proberAt(sim, bgp.PrefixID(i), int64(i))
			out.RTT = append(out.RTT, e.measure(p, d.TB.Site(id), false, true, i*nTargets).RTT...)
		}
		return out
	})
	d.Experiments += len(siteIDs)
	d.Slots += nSlots

	rows := make([][]int64, len(siteIDs))
	for slot, sw := range sweeps {
		if len(sw.RTT) != len(group(slot))*nTargets {
			// The slot never ran (its batch was aborted, leaving a zero
			// sweep), or the journal replayed an entry of another shape —
			// one laid out for a different prefix count. Its rows stay nil.
			continue
		}
		for i := range group(slot) {
			rows[slot*nPrefixes+i] = sw.RTT[i*nTargets : (i+1)*nTargets]
		}
	}
	return d.rttTable(siteIDs, rows), nil
}

// Patch builds a new table in which every client selected by cone is
// replaced by (or, when absent there, dropped in favor of) its entry in
// patch, per site. Clients outside the cone keep their RTTs from t. Neither
// input is modified — the result is a fresh copy-on-write table for
// publication through PatchCampaign.
//
// When the cone selects no client of either table — the empty churn repair —
// the receiver itself is returned instead of a deep copy; tables are
// immutable once published, so sharing the receiver is as safe as sharing
// the snapshot it came from.
func (t *RTTTable) Patch(patch *RTTTable, cone func(prefs.Client) bool) *RTTTable {
	if !slices.ContainsFunc(t.clients, cone) && !slices.ContainsFunc(patch.clients, cone) {
		return t
	}
	// One dense row per site over the union of both client columns: cone
	// clients read patch, the rest read t. The builder drops clients left
	// with no cell on any of t's sites — a cone client patch did not
	// re-measure, a patch-only client outside the cone — so the column equals
	// what a from-scratch campaign on the patched state would build, which
	// the byte-identity tests rely on.
	union := slices.Concat(t.clients, patch.clients)
	slices.Sort(union)
	union = slices.Compact(union)
	rows := make([][]int64, len(t.sites))
	patchSite := make([]int, len(t.sites))
	for si, site := range t.sites {
		rows[si] = missingRTTs(len(union))
		patchSite[si] = patch.siteIdx(site)
	}
	for p, c := range union {
		if !cone(c) {
			if ci, ok := t.clients.Find(c); ok {
				for si := range rows {
					rows[si][p] = t.col(si)[ci]
				}
			}
			continue
		}
		if ci, ok := patch.clients.Find(c); ok {
			for si, psi := range patchSite {
				if psi >= 0 {
					rows[si][p] = patch.col(psi)[ci]
				}
			}
		}
	}
	return newRTTTable(t.sites, union, rows)
}

// Export serializes the table as site → client → RTT nanoseconds.
func (t *RTTTable) Export() map[int]map[prefs.Client]int64 {
	out := make(map[int]map[prefs.Client]int64, len(t.sites))
	for si, site := range t.sites {
		row := make(map[prefs.Client]int64, t.counts[si])
		for ci, ns := range t.col(si) {
			if ns != rttMissing {
				row[t.clients[ci]] = ns
			}
		}
		out[site] = row
	}
	return out
}

// Columns returns the table's sorted site column, its client column and its
// sites × clients slab of RTT nanoseconds, row-major by site, −1 where a cell
// was never measured. All three are the table's own slices, for a caller
// that serializes them: they must not be written.
func (t *RTTTable) Columns() (sites []int, clients []prefs.Client, cells []int64) {
	return t.sites, t.clients, t.cells
}

// NewRTTTableColumns is the inverse of Columns. It takes ownership of the
// three slices, and refuses columns that Columns never returns: a site or
// client column that is not strictly ascending, cells of the wrong length,
// an RTT below −1, and a client no site measured.
func NewRTTTableColumns(sites []int, clients []prefs.Client, cells []int64) (*RTTTable, error) {
	for i := 1; i < len(sites); i++ {
		if sites[i-1] >= sites[i] {
			return nil, fmt.Errorf("discovery: RTT site column is not strictly ascending")
		}
	}
	if !prefs.ClientColumn(clients).Ascending() {
		return nil, fmt.Errorf("discovery: RTT client column is not strictly ascending")
	}
	if len(cells) != len(sites)*len(clients) {
		return nil, fmt.Errorf("discovery: %d RTT cells for %d sites and %d clients", len(cells), len(sites), len(clients))
	}
	t := &RTTTable{sites: sites, clients: clients, cells: cells, counts: make([]int, len(sites))}
	measured := make([]bool, len(clients))
	for si := range sites {
		for ci, ns := range t.col(si) {
			if ns < rttMissing {
				return nil, fmt.Errorf("discovery: RTT %d from site %d to client %d", ns, sites[si], clients[ci])
			}
			if ns != rttMissing {
				t.counts[si]++
				measured[ci] = true
			}
		}
	}
	if ci := slices.Index(measured, false); ci >= 0 {
		return nil, fmt.Errorf("discovery: no site measured client %d", clients[ci])
	}
	return t, nil
}
