package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"anyopt"
	"anyopt/internal/analysis"
	"anyopt/internal/core/predict"
	"anyopt/internal/core/prefs"
)

// Fig6Result compares deployed configurations (§5.3): the AnyOpt optimum
// against the greedy-by-unicast, best-random, and all-sites baselines.
type Fig6Result struct {
	Series []Fig6Series
}

// Fig6Series is one deployed configuration's client RTT distribution.
type Fig6Series struct {
	Name   string
	Config anyopt.Config
	RTTsMs []float64
}

// Mean returns the series' mean RTT in ms.
func (s Fig6Series) Mean() float64 { return analysis.Mean(s.RTTsMs) }

// Median returns the series' median RTT in ms.
func (s Fig6Series) Median() float64 { return analysis.Median(s.RTTsMs) }

// Get returns the series with the given name.
func (r Fig6Result) Get(name string) *Fig6Series {
	for i := range r.Series {
		if r.Series[i].Name == name {
			return &r.Series[i]
		}
	}
	return nil
}

// Render formats Figure 6.
func (r Fig6Result) Render() string {
	tab := analysis.NewTable("Figure 6: client RTT distributions per configuration (paper: AnyOpt-12 median 43ms vs 12-Greedy 76ms; −33ms mean)",
		"series", "sites", "median ms", "mean ms", "p90 ms")
	for _, s := range r.Series {
		tab.AddRow(s.Name, len(s.Config), s.Median(), s.Mean(), analysis.Percentile(s.RTTsMs, 90))
	}
	out := tab.String() + "\nCDF series (fraction of targets with RTT ≤ x ms):\n"
	grid := []float64{25, 50, 75, 100, 150, 200, 300, 400, 600}
	for _, s := range r.Series {
		out += analysis.FormatCDFSeries(s.Name, s.RTTsMs, grid)
	}
	out += "\nCDF shape (x = grid above):\n"
	for _, s := range r.Series {
		vals := make([]float64, len(grid))
		for i, g := range grid {
			vals[i] = analysis.CDFAt(s.RTTsMs, g)
		}
		out += fmt.Sprintf("  %-12s %s\n", s.Name, analysis.Sparkline(vals))
	}
	return out
}

// Fig6 finds the AnyOpt optimum with k sites, deploys it alongside the
// baselines, and measures every target's RTT under each.
func (e *Env) Fig6(k int) (Fig6Result, error) {
	if err := e.Discover(); err != nil {
		return Fig6Result{}, err
	}
	if k <= 0 {
		k = 12
	}
	sys, snap := e.Sys, e.Sys.CurrentSnapshot()

	opt, err := snap.Optimize(k, 0)
	if err != nil {
		return Fig6Result{}, err
	}
	greedy, err := snap.GreedyConfig(k)
	if err != nil {
		return Fig6Result{}, err
	}

	// "4-Random": the best of three random configurations built from two
	// providers with two sites each (§5.3). All three trial deployments are
	// independent, so they go out as one batch.
	rng := rand.New(rand.NewSource(e.Seed*17 + 3))
	trials := make([]anyopt.Config, 3)
	for i := range trials {
		trials[i] = e.twoByTwoConfig(rng)
	}
	var bestRandom anyopt.Config
	bestMean := time.Duration(1<<62 - 1)
	for i, r := range sys.MeasureConfigurations(trials) {
		if mean, n := predict.MeasuredMeanRTT(r.RTTs); n > 0 && mean < bestMean {
			bestMean, bestRandom = mean, trials[i]
		}
	}

	series := []struct {
		name string
		cfg  anyopt.Config
	}{
		{fmt.Sprintf("AnyOpt-%d", k), opt.Config},
		{fmt.Sprintf("%d-Greedy", k), greedy},
		{"4-Random", bestRandom},
		{fmt.Sprintf("%d-all", len(sys.TB.Sites)), sys.AllSitesConfig()},
	}
	cfgs := make([]anyopt.Config, len(series))
	for i, s := range series {
		cfgs[i] = s.cfg
	}
	var res Fig6Result
	for i, r := range sys.MeasureConfigurations(cfgs) {
		clients := make([]prefs.Client, 0, len(r.RTTs))
		for c := range r.RTTs {
			clients = append(clients, c)
		}
		sort.Slice(clients, func(i, j int) bool { return clients[i] < clients[j] })
		ms := make([]float64, 0, len(clients))
		for _, c := range clients {
			ms = append(ms, float64(r.RTTs[c])/float64(time.Millisecond))
		}
		res.Series = append(res.Series, Fig6Series{Name: series[i].name, Config: series[i].cfg, RTTsMs: ms})
	}
	return res, nil
}

// twoByTwoConfig draws two random providers and two random sites within each
// (or one when the provider hosts a single site, topping up from a third
// provider so the config still has four sites when possible).
func (e *Env) twoByTwoConfig(rng *rand.Rand) anyopt.Config {
	tb := e.Sys.TB
	provs := tb.TransitProviders()
	rng.Shuffle(len(provs), func(i, j int) { provs[i], provs[j] = provs[j], provs[i] })
	var cfg anyopt.Config
	for _, p := range provs {
		if len(cfg) >= 4 {
			break
		}
		sites := tb.SitesOfTransit(p)
		rng.Shuffle(len(sites), func(i, j int) { sites[i], sites[j] = sites[j], sites[i] })
		for i := 0; i < 2 && i < len(sites) && len(cfg) < 4; i++ {
			cfg = append(cfg, sites[i].ID)
		}
	}
	// Re-order to the global announcement order for deployability.
	if snap := e.Sys.CurrentSnapshot(); snap != nil {
		return snap.Pred.SiteSetToConfig(predict.ConfigToSiteSet(len(tb.Sites), cfg), snap.AnnOrder)
	}
	return cfg
}
