package discovery

import (
	"fmt"

	"anyopt/internal/core/prefs"
	"anyopt/internal/topology"
)

// Representatives picks the default representative site (lowest ID) for each
// transit provider, skipping quarantined sites — a provider whose every site
// is quarantined gets no representative, and ProviderPrefs degrades
// accordingly.
func (d *Discovery) Representatives() map[topology.ASN]int {
	reps := make(map[topology.ASN]int)
	for _, s := range d.TB.Sites {
		if d.IsQuarantined(s.ID) {
			continue
		}
		if cur, ok := reps[s.Transit]; !ok || s.ID < cur {
			reps[s.Transit] = s.ID
		}
	}
	return reps
}

// simultaneousPrefs runs the order-oblivious campaign over the given sites:
// every pair announced simultaneously, one experiment per pair across the
// worker pool, each answered row recorded as a strict preference for the item
// its catchment site maps to, in a store over the items the sites map to.
// Pairs touching a quarantined site are skipped — their slot (and nonce) is
// still consumed, so the remaining experiments stay aligned with the
// fault-free campaign schedule and produce identical results. Rows are read
// by target position: targets are client-sorted, so the store's O(1) tail
// append holds (an unsorted imported topology stays correct through the
// store's ordered insert).
func (d *Discovery) simultaneousPrefs(siteIDs []int, item func(siteID int) prefs.Item) (*prefs.Store, error) {
	items := make([]prefs.Item, len(siteIDs))
	for i, id := range siteIDs {
		items[i] = item(id)
	}
	store, err := prefs.NewStore(items)
	if err != nil {
		return nil, err
	}
	var pairs [][2]int
	for a := 0; a < len(siteIDs); a++ {
		for b := a + 1; b < len(siteIDs); b++ {
			pairs = append(pairs, [2]int{siteIDs[a], siteIDs[b]})
		}
	}
	skipped := func(pr [2]int) bool { return d.IsQuarantined(pr[0]) || d.IsQuarantined(pr[1]) }
	for _, pr := range pairs {
		if skipped(pr) {
			d.faultLog = append(d.faultLog,
				fmt.Sprintf("skip simultaneous pair %d-%d: quarantined site", pr[0], pr[1]))
		}
	}
	sweeps := d.runBatch("simpair", len(pairs), func(e *Exp, i int) Sweep {
		if skipped(pairs[i]) {
			return Sweep{}
		}
		sim := e.deploySimultaneous(pairs[i][0], pairs[i][1])
		return e.measure(e.prober(sim), nil, false, false, 0)
	})
	d.Experiments += len(pairs)
	targets := d.TB.Topo.Targets
	for k, sw := range sweeps {
		a, b := item(pairs[k][0]), item(pairs[k][1])
		for p, site := range sw.Site {
			if site == 0 {
				continue
			}
			if err := store.RecordSimultaneous(prefs.Client(targets[p].AS), a, b, item(int(site))); err != nil {
				return nil, err
			}
		}
	}
	store.Compact()
	return store, nil
}

// providerItem maps a site ID to its transit provider, as a store item.
func (d *Discovery) providerItem(siteID int) prefs.Item {
	return prefs.Item(d.TB.Site(siteID).Transit)
}

// siteItem maps a site ID to itself as a store item.
func siteItem(siteID int) prefs.Item { return prefs.Item(siteID) }

// ProviderPrefs discovers each client's pairwise preferences between transit
// providers using order-controlled experiments (§4.3 "Provider-Level
// Preference Discovery"): for every provider pair, one representative site
// per provider is announced in both orders, six minutes apart.
func (d *Discovery) ProviderPrefs(reps map[topology.ASN]int) (*prefs.Store, error) {
	providers := d.TB.TransitProviders()
	items := make([]prefs.Item, len(providers))
	for i, p := range providers {
		items[i] = prefs.Item(p)
	}
	store, err := prefs.NewStore(items)
	if err != nil {
		return nil, err
	}
	type pair struct{ a, b topology.ASN }
	var pairs []pair
	var configs [][]int
	for a := 0; a < len(providers); a++ {
		for b := a + 1; b < len(providers); b++ {
			pa, pb := providers[a], providers[b]
			sa, okA := reps[pa]
			sb, okB := reps[pb]
			if !okA || !okB {
				missing := pa
				if okA {
					missing = pb
				}
				// With faults enabled a provider can lose its last live site
				// mid-campaign; degrade by skipping its pairs (recorded, not
				// silent). Fault-free, a missing representative is caller
				// error.
				if d.Cfg.Faults.Enabled() {
					d.faultLog = append(d.faultLog, fmt.Sprintf(
						"skip provider pair %d-%d: no live representative for provider %d", pa, pb, missing))
					continue
				}
				return nil, fmt.Errorf("discovery: no representative for provider %d", missing)
			}
			pairs = append(pairs, pair{pa, pb})
			configs = append(configs, []int{sa, sb}, []int{sb, sa})
		}
	}
	sweeps := d.runBatch("config", len(configs), func(e *Exp, i int) Sweep {
		sim := e.deploy(configs[i], nil)
		return e.measure(e.prober(sim), nil, false, false, 0)
	})
	d.Experiments += len(configs)
	targets := d.TB.Topo.Targets
	for k, pr := range pairs {
		winAB, winBA := sweeps[2*k].Site, sweeps[2*k+1].Site
		if len(winAB) != len(winBA) {
			// One order never ran (its batch was aborted, leaving a zero
			// sweep), or the journal replayed an entry of another shape.
			continue
		}
		for p, siteAB := range winAB {
			siteBA := winBA[p]
			if siteAB == 0 || siteBA == 0 {
				continue // lost probes in one experiment: skip client
			}
			if err := store.RecordOrdered(prefs.Client(targets[p].AS), prefs.Item(pr.a), prefs.Item(pr.b),
				d.providerItem(int(siteAB)), d.providerItem(int(siteBA))); err != nil {
				return nil, err
			}
		}
	}
	store.Compact()
	return store, nil
}

// ProviderPrefsNaive is the order-oblivious baseline: both representatives
// announced simultaneously, one experiment per pair, winner recorded as a
// strict preference (§5.1 "without considering the order of BGP
// announcements").
func (d *Discovery) ProviderPrefsNaive(reps map[topology.ASN]int) (*prefs.Store, error) {
	providers := d.TB.TransitProviders()
	ids := make([]int, len(providers))
	for i, p := range providers {
		ids[i] = reps[p]
	}
	return d.simultaneousPrefs(ids, d.providerItem)
}

// SitePrefs discovers each client's site-level preferences among the sites of
// one transit provider (§4.3 "Site-Level Preference Discovery"). Announcement
// order does not matter inside an AS (interior routing decides), so a single
// simultaneous experiment per pair suffices; the result is recorded as
// strict.
func (d *Discovery) SitePrefs(provider topology.ASN) (*prefs.Store, error) {
	sites := d.TB.SitesOfTransit(provider)
	if len(sites) == 0 {
		return nil, fmt.Errorf("discovery: provider %d hosts no sites", provider)
	}
	ids := make([]int, len(sites))
	for i, s := range sites {
		ids[i] = s.ID
	}
	return d.simultaneousPrefs(ids, siteItem)
}

// NaiveSitePrefs runs the flat order-oblivious baseline over arbitrary sites
// across providers: every pair announced simultaneously once — the approach
// whose total-order fraction collapses as sites are added (Figure 4c).
func (d *Discovery) NaiveSitePrefs(siteIDs []int) (*prefs.Store, error) {
	return d.simultaneousPrefs(siteIDs, siteItem)
}
