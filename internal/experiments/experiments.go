// Package experiments implements the paper's evaluation (§5): one entry
// point per table and figure, shared by cmd/figures (which renders them as
// text) and the top-level benchmarks (which regenerate them under go test
// -bench). Each experiment returns a structured result plus a Render()
// string whose series mirror the paper's plot.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"anyopt"
	"anyopt/internal/analysis"
	"anyopt/internal/core/discovery"
	"anyopt/internal/core/prefs"
	"anyopt/internal/topology"
)

// Env is a lazily discovered system shared by the experiments.
type Env struct {
	Sys  *anyopt.System
	Seed int64
}

// NewEnv builds the experiment environment. scale is "test" (fast,
// CI-sized), "paper" (thousands of client networks, as the evaluation
// should be read), or "internet" (~100k ASes with power-law attachment, the
// scale the columnar stores exist for).
func NewEnv(scale string, seed int64) (*Env, error) {
	opts, err := anyopt.ScaleOptions(scale)
	if err != nil {
		return nil, err
	}
	opts.Topology.Seed = seed
	opts.Testbed.Seed = seed
	sys, err := anyopt.New(opts)
	if err != nil {
		return nil, err
	}
	return &Env{Sys: sys, Seed: seed}, nil
}

// Discover runs the measurement campaign unless the system already has one
// (run earlier, or installed from a saved campaign).
func (e *Env) Discover() error {
	if e.Sys.CurrentSnapshot() != nil {
		return nil
	}
	return e.Sys.RunDiscovery()
}

// Table1 renders the testbed inventory in the layout of the paper's Table 1.
func (e *Env) Table1() string {
	tab := analysis.NewTable("Table 1: testbed sites", "Site", "Location", "Transit", "#peers")
	for _, s := range e.Sys.TB.Sites {
		tab.AddRow(s.ID, s.City, s.TransitName, len(s.PeerLinks))
	}
	return tab.String()
}

// Fig4aResult is the per-provider-pair catchment flip measurement.
type Fig4aResult struct {
	Pairs []Fig4aPair
}

// Fig4aPair is one provider pair's order-reversal experiment.
type Fig4aPair struct {
	A, B     string
	FlipFrac float64
	Targets  int
}

// FlipFracs lists the per-pair flip fractions.
func (r Fig4aResult) FlipFracs() []float64 {
	out := make([]float64, len(r.Pairs))
	for i, p := range r.Pairs {
		out[i] = p.FlipFrac
	}
	return out
}

// Render formats the figure.
func (r Fig4aResult) Render() string {
	tab := analysis.NewTable("Figure 4a: targets changing catchment when announcement order is reversed (paper: 6-14%)",
		"providers", "flipped %", "targets")
	for _, p := range r.Pairs {
		tab.AddRow(p.A+" vs "+p.B, 100*p.FlipFrac, p.Targets)
	}
	f := r.FlipFracs()
	return tab.String() + fmt.Sprintf("min %.1f%%  mean %.1f%%  max %.1f%%\n",
		100*analysis.Percentile(f, 0), 100*analysis.Mean(f), 100*analysis.Percentile(f, 100))
}

// Fig4a runs the order-reversal experiments across all provider pairs. Both
// orders of every pair are submitted as one batch, so the sweep spreads
// across the discovery executor's workers.
func (e *Env) Fig4a() Fig4aResult {
	d := e.Sys.Disc
	reps := d.Representatives()
	providers := e.Sys.TB.TransitProviders()
	name := providerNames(e.Sys)
	type pp struct{ a, b int }
	var pairs []pp
	var deps []discovery.Deployment
	for a := 0; a < len(providers); a++ {
		for b := a + 1; b < len(providers); b++ {
			pairs = append(pairs, pp{a, b})
			deps = append(deps,
				discovery.Deployment{Sites: []int{reps[providers[a]], reps[providers[b]]}},
				discovery.Deployment{Sites: []int{reps[providers[b]], reps[providers[a]]}})
		}
	}
	results := d.Measure(deps, false)
	var res Fig4aResult
	for k, pr := range pairs {
		ab, ba := results[2*k].Catchments, results[2*k+1].Catchments
		flip, n := 0, 0
		for c, site := range ab {
			if s2, ok := ba[c]; ok {
				n++
				if s2 != site {
					flip++
				}
			}
		}
		res.Pairs = append(res.Pairs, Fig4aPair{
			A: name[providers[pr.a]], B: name[providers[pr.b]],
			FlipFrac: float64(flip) / float64(n), Targets: n,
		})
	}
	return res
}

// Fig4bResult holds total-order fractions per provider count.
type Fig4bResult struct {
	// Providers[i] is the provider count for row i (3..N).
	Providers []int
	// NoOrderNaive/NoOrderAware are the fractions of clients *without* a
	// total order, as the paper plots them.
	NoOrderNaive []float64
	NoOrderAware []float64
}

// Render formats the figure.
func (r Fig4bResult) Render() string {
	tab := analysis.NewTable("Figure 4b: clients without a total provider-level order (paper at 6: naive 21.7%, order-aware 10.8%)",
		"#providers", "naive %", "order-aware %")
	for i, n := range r.Providers {
		tab.AddRow(n, 100*r.NoOrderNaive[i], 100*r.NoOrderAware[i])
	}
	return tab.String()
}

// Fig4b measures the fraction of clients lacking a total order as the
// number of providers grows, with and without announcement-order awareness.
func (e *Env) Fig4b() (Fig4bResult, error) {
	d := e.Sys.Disc
	reps := d.Representatives()
	ordered, err := d.ProviderPrefs(reps)
	if err != nil {
		return Fig4bResult{}, err
	}
	naive, err := d.ProviderPrefsNaive(reps)
	if err != nil {
		return Fig4bResult{}, err
	}
	items := ordered.Items()
	var res Fig4bResult
	for n := 3; n <= len(items); n++ {
		sub := items[:n]
		res.Providers = append(res.Providers, n)
		res.NoOrderNaive = append(res.NoOrderNaive, 1-naive.FracWithTotalOrder(sub))
		res.NoOrderAware = append(res.NoOrderAware, 1-ordered.FracWithTotalOrder(sub))
	}
	return res, nil
}

// Fig4cResult holds site-level total-order fractions.
type Fig4cResult struct {
	Sites      []int
	FlatNaive  []float64 // fraction WITH a total order, flat simultaneous pairwise
	TwoLevel   []float64 // fraction WITH a total order, two-level order-aware
	FinalSites int
}

// Render formats the figure.
func (r Fig4cResult) Render() string {
	tab := analysis.NewTable("Figure 4c: clients with a total site-level order (paper at 15: naive 15.3%, two-level 88.9%)",
		"#sites", "flat-naive %", "two-level %")
	for i, n := range r.Sites {
		tab.AddRow(n, 100*r.FlatNaive[i], 100*r.TwoLevel[i])
	}
	return tab.String()
}

// Fig4c compares flat order-oblivious site-level discovery against the
// two-level order-aware approach as sites are added.
func (e *Env) Fig4c(siteCounts []int) (Fig4cResult, error) {
	d := e.Sys.Disc
	tb := e.Sys.TB
	if len(siteCounts) == 0 {
		siteCounts = []int{6, 9, 12, 15}
	}
	allSites := make([]int, len(tb.Sites))
	for i, s := range tb.Sites {
		allSites[i] = s.ID
	}

	// Two-level machinery, measured once over all 15 sites.
	reps := d.Representatives()
	ordered, err := d.ProviderPrefs(reps)
	if err != nil {
		return Fig4cResult{}, err
	}
	provOrder, _ := ordered.BestAnnouncementOrder(7)
	intra := map[topology.ASN]*prefs.Store{}
	for _, pASN := range tb.TransitProviders() {
		if len(tb.SitesOfTransit(pASN)) < 2 {
			continue
		}
		st, err := d.SitePrefs(pASN)
		if err != nil {
			return Fig4cResult{}, err
		}
		intra[pASN] = st
	}

	var res Fig4cResult
	res.FinalSites = len(allSites)
	for _, n := range siteCounts {
		if n > len(allSites) {
			n = len(allSites)
		}
		subset := allSites[:n]
		flat, err := d.NaiveSitePrefs(subset)
		if err != nil {
			return Fig4cResult{}, err
		}
		res.Sites = append(res.Sites, n)
		res.FlatNaive = append(res.FlatNaive, flat.FracWithTotalOrder(flat.Items()))
		res.TwoLevel = append(res.TwoLevel, e.twoLevelFrac(ordered, provOrder, intra, subset))
	}
	return res, nil
}

// twoLevelFrac computes the fraction of clients with a complete two-level
// order over the given sites: a provider-level total order plus a site-level
// total order within every enabled multi-site provider.
func (e *Env) twoLevelFrac(ordered *prefs.Store, provOrder []prefs.Item, intra map[topology.ASN]*prefs.Store, sites []int) float64 {
	tb := e.Sys.TB
	// Group enabled sites by provider.
	byProv := map[topology.ASN][]prefs.Item{}
	provSet := map[prefs.Item]bool{}
	for _, id := range sites {
		s := tb.Site(id)
		byProv[s.Transit] = append(byProv[s.Transit], prefs.Item(id))
		provSet[prefs.Item(s.Transit)] = true
	}
	var enabledProv []prefs.Item
	for _, p := range provOrder {
		if provSet[p] {
			enabledProv = append(enabledProv, p)
		}
	}
	clients := ordered.Clients()
	ok := 0
	for _, c := range clients {
		if !ordered.Get(c).HasTotalOrder(enabledProv) {
			continue
		}
		good := true
		for pASN, ss := range byProv {
			if len(ss) < 2 {
				continue
			}
			st := intra[pASN]
			if st == nil {
				good = false
				break
			}
			cp := st.Get(c)
			if cp == nil || !cp.HasTotalOrder(ss) {
				good = false
				break
			}
		}
		if good {
			ok++
		}
	}
	if len(clients) == 0 {
		return 0
	}
	return float64(ok) / float64(len(clients))
}

func providerNames(sys *anyopt.System) map[topology.ASN]string {
	out := map[topology.ASN]string{}
	for _, s := range sys.TB.Sites {
		out[s.Transit] = s.TransitName
	}
	return out
}

// joinInts renders a config compactly.
func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x)
	}
	return strings.Join(parts, ",")
}

// drawConfig samples a random configuration of the given size for Figure 5.
func drawConfig(sys *anyopt.System, rng *rand.Rand, size int) anyopt.Config {
	cfg, err := sys.RandomConfig(size, rng)
	if err != nil {
		panic(err)
	}
	return cfg
}
