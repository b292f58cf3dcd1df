package predict

import (
	"time"

	"anyopt/internal/core/prefs"
	"anyopt/internal/topology"
)

// plan is one question resolved against the predictor's stores before any
// client is looked at: the provider announcement, and for each announced
// provider its candidate sites with their announcement in that provider's
// site store and their RTT columns. Everything a client row then costs is
// tournaments and array reads. A plan carries cursors into the sorted client
// columns beside the provider key column, so it serves exactly one ascending
// walk of that column.
type plan struct {
	p    *Predictor
	prov prefs.Announcement
	// groups[i] belongs to the i-th announced provider.
	groups []group
	// sites lists every group's candidate site IDs, group after group.
	sites []int
	// rttRow is the RTT table row of the client last handed to seekRTT, when
	// rttOK says it has one.
	rttRow int
	rttOK  bool
	// order is siteOrder's scratch for the RTT heuristic.
	order []int32
}

// group is one provider's share of a plan.
type group struct {
	// base is the position of sites[0] in the plan's site list.
	base int
	// sites are the candidate site IDs in announcement order; cols[k] is the
	// RTT column of sites[k], -1 when the table has no such site.
	sites []int
	cols  []int32
	// store holds the provider's measured site preferences and ann the
	// candidates' announcement in it; store is nil when the sites are ranked
	// by the §4.3 RTT heuristic alone. at is the cursor into store's key
	// column.
	store *prefs.Store
	ann   prefs.Announcement
	at    int
}

// newPlan resolves a provider announcement order and, per provider, those of
// the candidate sites (IDs of known sites, in announcement order) homed to it.
func (p *Predictor) newPlan(provOrder []prefs.Item, candidates []int) plan {
	pl := plan{
		p:      p,
		prov:   p.Providers.Announce(provOrder),
		groups: make([]group, len(provOrder)),
		sites:  make([]int, 0, len(candidates)),
	}
	cols := make([]int32, 0, len(candidates))
	// One provider's candidates as items, for Announce; the paper's 15 sites
	// stay on the stack.
	var buf [16]prefs.Item
	widest := 0
	for i, prov := range provOrder {
		g := &pl.groups[i]
		g.base = len(pl.sites)
		items := buf[:0]
		for _, id := range candidates {
			if p.TB.Site(id).Transit != topology.ASN(prov) {
				continue
			}
			col := -1
			if p.RTT != nil {
				col = p.RTT.Column(id)
			}
			pl.sites = append(pl.sites, id)
			cols = append(cols, int32(col))
			items = append(items, prefs.Item(id))
		}
		g.sites, g.cols = pl.sites[g.base:], cols[g.base:]
		if st := p.Sites[topology.ASN(prov)]; st != nil && !p.UseRTTHeuristic && len(items) > 1 {
			g.store, g.ann = st, st.Announce(items)
		}
		widest = max(widest, len(items))
	}
	pl.order = make([]int32, 0, widest)
	return pl
}

// seekRTT moves the RTT cursor to c. Clients must arrive in ascending order.
func (pl *plan) seekRTT(c prefs.Client) {
	if pl.p.RTT != nil {
		pl.rttRow, pl.rttOK = pl.p.RTT.Seek(pl.rttRow, c)
	}
}

// rtt returns the measured RTT between g's k-th site and the client last
// handed to seekRTT.
func (pl *plan) rtt(g *group, k int) (time.Duration, bool) {
	if !pl.rttOK || g.cols[k] < 0 {
		return 0, false
	}
	return pl.p.RTT.At(int(g.cols[k]), pl.rttRow)
}

// measured returns c's row in g's site store, if the provider has measured
// site preferences and c is among them.
func (g *group) measured(c prefs.Client) (int, bool) {
	if g.store == nil {
		return 0, false
	}
	row, ok := g.store.Seek(g.at, c)
	g.at = row
	return row, ok
}

// bestSite picks c's site among g's candidates, as an index into g.sites: the
// only candidate, else the top of c's measured site preferences, else — no
// site store, no row in it, or no total order — the candidate with the lowest
// measured RTT (§4.3: "the shorter the RTT, the more preferable the site";
// the provider choice is already made, so RTT ranks the rest rather than
// dropping the client), ties to the lower site ID.
func (pl *plan) bestSite(g *group, c prefs.Client) (int, bool) {
	if len(g.sites) == 1 {
		return 0, true
	}
	if row, ok := g.measured(c); ok {
		if k, ok := g.ann.Best(row); ok {
			return k, true
		}
	}
	best, bestRTT, found := 0, time.Duration(0), false
	for k, id := range g.sites {
		rtt, ok := pl.rtt(g, k)
		if !ok {
			continue
		}
		if !found || rtt < bestRTT || (rtt == bestRTT && id < g.sites[best]) {
			best, bestRTT, found = k, rtt, true
		}
	}
	return best, found
}

// siteOrder ranks all of g's candidates for c, as indices into g.sites: c's
// measured total order where there is one, else lowest measured RTT first,
// unmeasured sites last, ties to the lower site ID. The result is scratch,
// good until the next call.
func (pl *plan) siteOrder(g *group, c prefs.Client) []int32 {
	if row, ok := g.measured(c); ok {
		if order, ok := g.ann.Order(row); ok {
			return order
		}
	}
	order := pl.order[:0]
	for k := range g.sites {
		i := len(order)
		order = append(order, int32(k))
		for ; i > 0 && pl.rttBefore(g, k, int(order[i-1])); i-- {
			order[i] = order[i-1]
		}
		order[i] = int32(k)
	}
	return order
}

// rttBefore is the RTT heuristic's order on g's sites a and b.
func (pl *plan) rttBefore(g *group, a, b int) bool {
	ra, oka := pl.rtt(g, a)
	rb, okb := pl.rtt(g, b)
	if oka != okb {
		return oka
	}
	if ra != rb {
		return ra < rb
	}
	return g.sites[a] < g.sites[b]
}

// Sweep is the prediction of one configuration for every client of the
// provider store, made in one pass over its sorted key column.
type Sweep struct {
	// Sites are the configuration's sites grouped by provider, providers in
	// the order their first site is announced.
	Sites []int
	// Catch is the catchment column: Catch[row] indexes Sites for the client
	// in that row of the provider store and is -1 when the client has no
	// predictable catchment — no total order over the announced providers, or
	// no way to rank the chosen provider's sites.
	Catch []int32
	// Counts[i] is the number of clients predicted to land on Sites[i], and
	// Predicted their total.
	Counts    []int
	Predicted int
	// RTTSum adds up the measured RTT between each predicted client and its
	// site, over the Measured clients that have one.
	RTTSum   time.Duration
	Measured int
}

// Sweep predicts cfg for every client. A configuration that is empty or names
// an unknown site predicts nothing.
func (p *Predictor) Sweep(cfg Config) Sweep {
	sw := Sweep{Catch: make([]int32, p.Providers.NumClients())}
	for row := range sw.Catch {
		sw.Catch[row] = -1
	}
	provOrder, _, err := p.providerOrder(cfg)
	if err != nil {
		return sw
	}
	pl := p.newPlan(provOrder, cfg)
	sw.Sites, sw.Counts = pl.sites, make([]int, len(pl.sites))
	for row := range sw.Catch {
		gi, ok := pl.prov.Best(row)
		if !ok {
			continue
		}
		c := p.Providers.ClientAt(row)
		pl.seekRTT(c)
		g := &pl.groups[gi]
		k, ok := pl.bestSite(g, c)
		if !ok {
			continue
		}
		sw.Catch[row] = int32(g.base + k)
		sw.Counts[g.base+k]++
		sw.Predicted++
		if rtt, ok := pl.rtt(g, k); ok {
			sw.RTTSum += rtt
			sw.Measured++
		}
	}
	return sw
}

// MeanRTT is the predicted mean client RTT — each predictable client
// contributes its measured RTT to its predicted site — and the number of
// clients behind it.
func (sw Sweep) MeanRTT() (time.Duration, int) {
	if sw.Measured == 0 {
		return 0, 0
	}
	return sw.RTTSum / time.Duration(sw.Measured), sw.Measured
}
