// Package predict turns discovered preferences and RTT measurements into
// catchment and latency predictions for arbitrary anycast configurations
// (§3.4, §4.3, §5.2).
//
// Prediction is two-level, mirroring Internet routing structure: a client's
// inter-AS preference order (over transit providers) selects the ingress
// provider, and within that provider either measured site-level preferences
// or the RTT heuristic (§4.3) selects the site. Clients without a consistent
// total order are excluded from prediction, exactly as the paper excludes
// them.
package predict

import (
	"fmt"
	"time"

	"anyopt/internal/core/discovery"
	"anyopt/internal/core/prefs"
	"anyopt/internal/testbed"
	"anyopt/internal/topology"
)

// Predictor predicts catchments for one testbed from discovery results.
type Predictor struct {
	TB *testbed.Testbed
	// Providers holds inter-AS (provider-level) preferences.
	Providers *prefs.Store
	// Sites holds intra-AS site-level preferences per provider; entries may
	// be nil when the RTT heuristic is used instead.
	Sites map[topology.ASN]*prefs.Store
	// RTT is the singleton-experiment RTT table.
	RTT *discovery.RTTTable
	// UseRTTHeuristic selects intra-AS sites by lowest measured RTT instead
	// of measured site preferences — the scaling fallback of §4.3.
	UseRTTHeuristic bool
}

// Config is an anycast configuration: enabled site IDs in announcement order.
type Config []int

// providerOrder derives the provider-level announcement order from the site
// announcement order (a provider is "announced" when its first site is), and
// each provider's enabled sites in announcement order.
func (p *Predictor) providerOrder(cfg Config) ([]prefs.Item, map[topology.ASN][]prefs.Item, error) {
	provOrder := make([]prefs.Item, 0, len(cfg))
	sitesByProv := map[topology.ASN][]prefs.Item{}
	for _, id := range cfg {
		site := p.TB.Site(id)
		if site == nil {
			return nil, nil, fmt.Errorf("predict: unknown site %d", id)
		}
		if _, seen := sitesByProv[site.Transit]; !seen {
			sitesByProv[site.Transit] = nil
			provOrder = append(provOrder, prefs.Item(site.Transit))
		}
	}
	if len(provOrder) == 0 {
		return nil, nil, fmt.Errorf("predict: empty configuration")
	}
	// One backing array for every provider's list, not one growing slice each.
	sites := make([]prefs.Item, 0, len(cfg))
	for _, prov := range provOrder {
		start := len(sites)
		for _, id := range cfg {
			if p.TB.Site(id).Transit == topology.ASN(prov) {
				sites = append(sites, prefs.Item(id))
			}
		}
		sitesByProv[topology.ASN(prov)] = sites[start:len(sites):len(sites)]
	}
	return provOrder, sitesByProv, nil
}

// Catchment predicts the catchment site of client c under cfg. ok is false
// when the client lacks a total order over the enabled providers or sites, or
// lacks the required RTT measurements.
//
// It is the per-client oracle: it re-derives the provider order and runs the
// map-keyed ClientPrefs API for every call, and only tests call it — to hold
// Sweep, which answers for every client in one pass, to the same answer.
func (p *Predictor) Catchment(c prefs.Client, cfg Config) (int, bool) {
	provOrder, sitesByProv, err := p.providerOrder(cfg)
	if err != nil {
		return 0, false
	}
	cp := p.Providers.Get(c)
	if cp == nil {
		return 0, false
	}
	bestProv, ok := cp.Best(provOrder, provOrder)
	if !ok {
		return 0, false
	}
	prov := topology.ASN(bestProv)
	enabledSites := sitesByProv[prov]
	if len(enabledSites) == 1 {
		return int(enabledSites[0]), true
	}
	if p.UseRTTHeuristic || p.Sites[prov] == nil {
		return p.bestByRTT(c, enabledSites)
	}
	scp := p.Sites[prov].Get(c)
	if scp == nil {
		return p.bestByRTT(c, enabledSites)
	}
	site, ok := scp.Best(enabledSites, enabledSites)
	if !ok {
		// Fall back to the heuristic rather than dropping the client: the
		// provider choice is already made and RTT ranks the rest.
		return p.bestByRTT(c, enabledSites)
	}
	return int(site), true
}

// bestByRTT picks the enabled site with the lowest measured RTT for c — the
// §4.3 heuristic ("the shorter the RTT, the more preferable the site").
func (p *Predictor) bestByRTT(c prefs.Client, enabled []prefs.Item) (int, bool) {
	if p.RTT == nil {
		return 0, false
	}
	best, bestRTT := 0, time.Duration(0)
	found := false
	for _, it := range enabled {
		rtt, ok := p.RTT.RTT(int(it), c)
		if !ok {
			continue
		}
		if !found || rtt < bestRTT || (rtt == bestRTT && int(it) < best) {
			best, bestRTT, found = int(it), rtt, true
		}
	}
	return best, found
}

// All predicts catchments for every client known to the provider store.
// Unpredictable clients are absent from the result.
func (p *Predictor) All(cfg Config) map[prefs.Client]int {
	sw := p.Sweep(cfg)
	out := make(map[prefs.Client]int, sw.Predicted)
	for row, at := range sw.Catch {
		if at >= 0 {
			out[p.Providers.ClientAt(row)] = sw.Sites[at]
		}
	}
	return out
}

// Accuracy compares predicted and measured catchments over the clients
// present in both maps, returning the match fraction and the overlap count —
// the metric of Figure 5a.
func Accuracy(predicted, measured map[prefs.Client]int) (float64, int) {
	match, n := 0, 0
	for c, p := range predicted {
		m, ok := measured[c]
		if !ok {
			continue
		}
		n++
		if p == m {
			match++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(match) / float64(n), n
}

// MeasuredMeanRTT averages a measured per-client RTT map (§5.2's "measured
// average RTT").
func MeasuredMeanRTT(rtts map[prefs.Client]time.Duration) (time.Duration, int) {
	if len(rtts) == 0 {
		return 0, 0
	}
	var sum time.Duration
	for _, d := range rtts {
		sum += d
	}
	return sum / time.Duration(len(rtts)), len(rtts)
}

// NewPredictor assembles a predictor from the standard two-level discovery
// campaign: ordered provider prefs, per-provider site prefs (or the RTT
// heuristic when useRTTHeuristic is set), and the singleton RTT table.
//
// It also fails when the campaign hit an infrastructure error that the batch
// APIs report only through d.Err (cancellation, checkpoint I/O, a schedule
// mismatch): a predictor built over such a campaign is incomplete and must
// not be published. The error wraps d.Err, so errors.Is still sees
// context.Canceled.
func NewPredictor(tb *testbed.Testbed, d *discovery.Discovery, useRTTHeuristic bool) (*Predictor, *discovery.RTTTable, error) {
	allSites := make([]int, len(tb.Sites))
	for i, s := range tb.Sites {
		allSites[i] = s.ID
	}
	rtt, err := d.MeasureRTTs(allSites)
	if err != nil {
		return nil, nil, err
	}
	prov, err := d.ProviderPrefs(d.Representatives())
	if err != nil {
		return nil, nil, err
	}
	sites := make(map[topology.ASN]*prefs.Store)
	if !useRTTHeuristic {
		for _, pASN := range tb.TransitProviders() {
			if len(tb.SitesOfTransit(pASN)) < 2 {
				continue
			}
			st, err := d.SitePrefs(pASN)
			if err != nil {
				return nil, nil, err
			}
			sites[pASN] = st
		}
	}
	if err := d.Err(); err != nil {
		return nil, nil, fmt.Errorf("predict: campaign: %w", err)
	}
	return &Predictor{
		TB:              tb,
		Providers:       prov,
		Sites:           sites,
		RTT:             rtt,
		UseRTTHeuristic: useRTTHeuristic,
	}, rtt, nil
}
