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
	// clients is the sorted client-ID column, the union across sites.
	clients []prefs.Client
	// cols[si][ci] is the RTT in nanoseconds from sites[si] to clients[ci],
	// or rttMissing when that cell was never measured.
	cols [][]int64
	// counts[si] is the number of measured cells in cols[si].
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

// clientIdx binary-searches the client column; returns -1 when absent.
func (t *RTTTable) clientIdx(c prefs.Client) int {
	i := sort.Search(len(t.clients), func(k int) bool { return t.clients[k] >= c })
	if i < len(t.clients) && t.clients[i] == c {
		return i
	}
	return -1
}

// RTT returns the measured RTT between site and client.
func (t *RTTTable) RTT(site int, c prefs.Client) (time.Duration, bool) {
	si := t.siteIdx(site)
	if si < 0 {
		return 0, false
	}
	ci := t.clientIdx(c)
	if ci < 0 {
		return 0, false
	}
	ns := t.cols[si][ci]
	if ns == rttMissing {
		return 0, false
	}
	return time.Duration(ns), true
}

// Column resolves a site to its value column for At, -1 when the table has no
// such site — once per configuration, where RTT searches per cell.
func (t *RTTTable) Column(site int) int { return t.siteIdx(site) }

// Seek returns the first row of the client column at or after from whose
// client is not below c, and whether that row is c's. Like prefs.Store.Seek
// it scans forward, for callers walking another sorted client column.
func (t *RTTTable) Seek(from int, c prefs.Client) (int, bool) {
	for from < len(t.clients) && t.clients[from] < c {
		from++
	}
	return from, from < len(t.clients) && t.clients[from] == c
}

// At is RTT by position: the cell of a Column (col ≥ 0) at a row Seek found.
func (t *RTTTable) At(col, row int) (time.Duration, bool) {
	ns := t.cols[col][row]
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
	for _, ns := range t.cols[si] {
		if ns != rttMissing {
			sum += time.Duration(ns)
		}
	}
	return sum / time.Duration(t.counts[si])
}

// SiteRTTs calls fn for every measured cell of the given site in ascending
// client order — the streaming accessor campaign persistence serializes
// through, one cell at a time.
func (t *RTTTable) SiteRTTs(site int, fn func(c prefs.Client, ns int64)) {
	si := t.siteIdx(site)
	if si < 0 {
		return
	}
	for ci, ns := range t.cols[si] {
		if ns != rttMissing {
			fn(t.clients[ci], ns)
		}
	}
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
		cols:    make([][]int64, len(siteIDs)),
		counts:  make([]int, len(siteIDs)),
	}
	// cell[p] is position p's index in the client column, resolved once per
	// position rather than once per cell.
	cell := make([]int32, len(clients))
	for p, ok := range measured {
		if ok {
			cell[p] = int32(t.clientIdx(clients[p]))
		}
	}
	// All value columns share one backing slab: a single large allocation is
	// page-rounded by the allocator, where per-column slabs each eat the gap
	// to their size class — measurable bytes-per-client at campaign scale.
	backing := missingRTTs(len(siteIDs) * len(keys))
	for si, oi := range order {
		t.sites[si] = siteIDs[oi]
		col := backing[si*len(keys) : (si+1)*len(keys) : (si+1)*len(keys)]
		for p, ns := range rows[oi] {
			if ns == rttMissing {
				continue
			}
			if col[cell[p]] == rttMissing {
				t.counts[si]++
			}
			col[cell[p]] = ns
		}
		t.cols[si] = col
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
			if ci := t.clientIdx(c); ci >= 0 {
				for si := range rows {
					rows[si][p] = t.cols[si][ci]
				}
			}
			continue
		}
		if ci := patch.clientIdx(c); ci >= 0 {
			for si, psi := range patchSite {
				if psi >= 0 {
					rows[si][p] = patch.cols[psi][ci]
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
		for ci, ns := range t.cols[si] {
			if ns != rttMissing {
				row[t.clients[ci]] = ns
			}
		}
		out[site] = row
	}
	return out
}

// ImportRTTTable rebuilds a table from Export's format.
func ImportRTTTable(data map[int]map[prefs.Client]int64) *RTTTable {
	siteIDs := make([]int, 0, len(data))
	var clients []prefs.Client
	for site, row := range data {
		siteIDs = append(siteIDs, site)
		for c := range row {
			clients = append(clients, c)
		}
	}
	sort.Ints(siteIDs)
	slices.Sort(clients)
	clients = slices.Compact(clients)
	rows := make([][]int64, len(siteIDs))
	for i, site := range siteIDs {
		rows[i] = make([]int64, len(clients))
		for p, c := range clients {
			ns, ok := data[site][c]
			if !ok {
				ns = rttMissing
			}
			rows[i][p] = ns
		}
	}
	return newRTTTable(siteIDs, clients, rows)
}
