package predict

import (
	"sort"
	"time"

	"anyopt/internal/core/prefs"
	"anyopt/internal/core/splpo"
	"anyopt/internal/topology"
)

// unmeasuredCost is the SPLPO cost for a (client, site) pair with no RTT
// measurement: large enough that the optimizer avoids relying on it, finite
// so arithmetic stays clean.
const unmeasuredCost = 1e9 // milliseconds

// intraRanking orders the given sites of one provider by the client's
// intra-AS preferences, falling back to the RTT heuristic (§4.3). Like
// Ranking, which it serves, it is oracle code.
func (p *Predictor) intraRanking(c prefs.Client, prov topology.ASN) []int {
	sites := p.TB.SitesOfTransit(prov)
	items := make([]prefs.Item, len(sites))
	for i, s := range sites {
		items[i] = prefs.Item(s.ID)
	}
	if len(items) == 1 {
		return []int{int(items[0])}
	}
	if !p.UseRTTHeuristic && p.Sites[prov] != nil {
		if scp := p.Sites[prov].Get(c); scp != nil {
			if order, ok := scp.TotalOrder(items); ok {
				out := make([]int, len(order))
				for i, it := range order {
					out[i] = int(it)
				}
				return out
			}
		}
	}
	// RTT heuristic: lowest measured RTT first; unmeasured sites last.
	out := make([]int, len(items))
	for i, it := range items {
		out[i] = int(it)
	}
	sort.SliceStable(out, func(a, b int) bool {
		ra, oka := p.rttOrHuge(out[a], c)
		rb, okb := p.rttOrHuge(out[b], c)
		if oka != okb {
			return oka
		}
		if ra != rb {
			return ra < rb
		}
		return out[a] < out[b]
	})
	return out
}

func (p *Predictor) rttOrHuge(site int, c prefs.Client) (time.Duration, bool) {
	if p.RTT == nil {
		return 0, false
	}
	return p.RTT.RTT(site, c)
}

// Ranking composes a client's full preference order over every testbed site
// under the given provider announcement order: providers in the client's
// total order, sites within each provider in intra-AS order. ok is false
// when the client has no provider-level total order.
//
// It is the per-client oracle of BuildInstanceWeighted, as Catchment is
// Sweep's: only tests call it.
func (p *Predictor) Ranking(c prefs.Client, annProv []prefs.Item) ([]int, bool) {
	cp := p.Providers.Get(c)
	if cp == nil {
		return nil, false
	}
	provOrder, ok := cp.TotalOrder(annProv)
	if !ok {
		return nil, false
	}
	var out []int
	for _, prov := range provOrder {
		out = append(out, p.intraRanking(c, topology.ASN(prov))...)
	}
	return out, true
}

// BuildInstance converts the discovery results into an SPLPO instance
// (Appendix B): site index i corresponds to testbed site ID i+1, each
// orderable client contributes its full ranking, and costs are measured RTTs
// in milliseconds. It returns the instance and the client behind each
// instance row. Clients without a total order are excluded from
// optimization, as §4.5 prescribes.
func (p *Predictor) BuildInstance(annProv []prefs.Item) (*splpo.Instance, []prefs.Client) {
	return p.BuildInstanceWeighted(annProv, nil, nil)
}

// BuildInstanceWeighted is BuildInstance with the Appendix B extensions:
// loads assigns each client a demand l(h) (defaulting to 1) that both
// weights its RTT contribution ("weigh each host's RTT with its workload")
// and counts against site capacities; caps (site ID → maximum load L_i)
// adds the per-site load constraint Σ l(h)·x_{h,i} ≤ L_i.
func (p *Predictor) BuildInstanceWeighted(annProv []prefs.Item, loads map[prefs.Client]float64, caps map[int]float64) (*splpo.Instance, []prefs.Client) {
	n := len(p.TB.Sites)
	in := &splpo.Instance{NumSites: n}
	if caps != nil {
		in.Cap = make([]float64, n)
		for i := range in.Cap {
			in.Cap[i] = splpo.Infinity
		}
		for siteID, cap := range caps {
			if siteID >= 1 && siteID <= n {
				in.Cap[siteID-1] = cap
			}
		}
	}
	all := make([]int, n)
	for i, s := range p.TB.Sites {
		all[i] = s.ID
	}
	pl := p.newPlan(annProv, all)
	rows := p.Providers.NumClients()
	orderable := 0
	for row := 0; row < rows; row++ {
		if _, ok := pl.prov.Best(row); ok {
			orderable++
		}
	}
	// Every orderable client ranks every planned site, so all rankings and
	// all costs are windows of two exactly-sized arrays.
	ranking := make([]int, 0, orderable*len(pl.sites))
	costs := make([]float64, 0, orderable*len(pl.sites))
	in.Clients = make([]splpo.Client, 0, orderable)
	clients := make([]prefs.Client, 0, orderable)
	for row := 0; row < rows; row++ {
		provs, ok := pl.prov.Order(row)
		if !ok {
			continue
		}
		c := p.Providers.ClientAt(row)
		pl.seekRTT(c)
		start := len(ranking)
		for _, gi := range provs {
			g := &pl.groups[gi]
			for _, k := range pl.siteOrder(g, c) {
				cost := float64(unmeasuredCost)
				if rtt, ok := pl.rtt(g, int(k)); ok {
					cost = float64(rtt) / float64(time.Millisecond)
				}
				ranking = append(ranking, g.sites[k]-1)
				costs = append(costs, cost)
			}
		}
		load, ok := loads[c]
		if !ok {
			load = 1
		}
		end := len(ranking)
		in.Clients = append(in.Clients, splpo.Client{
			Ranking: ranking[start:end:end], RankCost: costs[start:end:end], Load: load, Weight: load,
		})
		clients = append(clients, c)
	}
	return in, clients
}

// SiteSetToConfig converts a set of SPLPO site indices into a deployable
// configuration: site IDs ordered by the provider announcement order (each
// provider's sites announced consecutively), so that deployed arrival order
// matches the preferences used to predict it.
func (p *Predictor) SiteSetToConfig(open splpo.SiteSet, annProv []prefs.Item) Config {
	var cfg Config
	for _, prov := range annProv {
		for _, s := range p.TB.SitesOfTransit(topology.ASN(prov)) {
			if open.Has(s.ID - 1) {
				cfg = append(cfg, s.ID)
			}
		}
	}
	return cfg
}

// ConfigToSiteSet is the inverse of SiteSetToConfig over an n-site testbed.
func ConfigToSiteSet(n int, cfg Config) splpo.SiteSet {
	s := splpo.NewSiteSet(n)
	for _, id := range cfg {
		if id >= 1 && id <= n {
			s.Add(id - 1)
		}
	}
	return s
}
