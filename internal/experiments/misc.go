package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"anyopt"
	"anyopt/internal/analysis"
	"anyopt/internal/core/discovery"
	"anyopt/internal/core/predict"
	"anyopt/internal/core/prefs"
	"anyopt/internal/core/splpo"
	"anyopt/internal/topology"
)

// Sec45Schedule renders the §4.5 measurement-schedule analysis for the
// production-scale network (500 sites, 20 transits, 4 parallel prefixes).
func Sec45Schedule() string {
	plan := discovery.PlanTransitOnly(500, 20, 4, true)
	naivePairs := 500 * 499 / 2
	return fmt.Sprintf(
		"§4.5 schedule (500 sites, 20 transit providers, 4 parallel prefixes, 2h spacing):\n"+
			"  singleton experiments: %d → %.0f h (≈%.0f days)   [paper: 250 h ≈ 10 days]\n"+
			"  pairwise experiments:  %d → %.0f h (≈%.0f days)   [paper: 190 h ≈ 8 days]\n"+
			"  total ≈ %.1f days; flat site-level pairwise would need %d experiments\n",
		plan.SingletonExperiments, plan.SingletonHours(), plan.SingletonHours()/24,
		plan.PairwiseExperiments, plan.PairwiseHours(), plan.PairwiseHours()/24,
		plan.TotalDays(), naivePairs)
}

// RepStabilityResult is the §5.1 representative-site experiment.
type RepStabilityResult struct {
	// SamePrefFrac is the fraction of pairwise preferences unchanged when
	// every provider's representative site is swapped (paper: 94.2%).
	SamePrefFrac float64
	Compared     int
}

// Render formats the result.
func (r RepStabilityResult) Render() string {
	return fmt.Sprintf("Representative-site stability: %.1f%% of %d pairwise preferences unchanged when representatives vary (paper: 94.2%%)\n",
		100*r.SamePrefFrac, r.Compared)
}

// RepresentativeStability re-runs provider-level discovery with the
// alternative representative per provider and counts unchanged preferences.
func (e *Env) RepresentativeStability() (RepStabilityResult, error) {
	d := e.Sys.Disc
	repsA := d.Representatives()
	repsB := map[topology.ASN]int{}
	for _, s := range e.Sys.TB.Sites {
		if cur, ok := repsB[s.Transit]; !ok || s.ID > cur {
			repsB[s.Transit] = s.ID
		}
	}
	a, err := d.ProviderPrefs(repsA)
	if err != nil {
		return RepStabilityResult{}, err
	}
	b, err := d.ProviderPrefs(repsB)
	if err != nil {
		return RepStabilityResult{}, err
	}
	items := a.Items()
	same, total := 0, 0
	for _, c := range a.Clients() {
		cpB := b.Get(c)
		if cpB == nil {
			continue
		}
		for x := 0; x < len(items); x++ {
			for y := x + 1; y < len(items); y++ {
				rA, wA := a.Get(c).Relation(items[x], items[y])
				rB, wB := cpB.Relation(items[x], items[y])
				if rA == prefs.RelUnknown || rB == prefs.RelUnknown {
					continue
				}
				total++
				if rA == rB && wA == wB {
					same++
				}
			}
		}
	}
	if total == 0 {
		return RepStabilityResult{}, fmt.Errorf("experiments: no comparable preferences")
	}
	return RepStabilityResult{SamePrefFrac: float64(same) / float64(total), Compared: total}, nil
}

// StabilityResult is the §6 longitudinal study.
type StabilityResult struct {
	Weeks []StabilityWeek
}

// StabilityWeek is one re-measurement.
type StabilityWeek struct {
	Week          int
	UnchangedFrac float64
	MeanRTT       time.Duration
}

// Render formats the study.
func (r StabilityResult) Render() string {
	tab := analysis.NewTable("§6 stability: weekly re-measurement of the deployed optimum (paper: >90% unchanged over 3 weeks)",
		"week", "catchments unchanged %", "mean RTT")
	for _, w := range r.Weeks {
		tab.AddRow(w.Week, 100*w.UnchangedFrac, w.MeanRTT)
	}
	return tab.String()
}

// Stability deploys the k-site optimum and re-measures weekly under churn.
func (e *Env) Stability(k, weeks int, churnPerWeek float64) (StabilityResult, error) {
	if err := e.Discover(); err != nil {
		return StabilityResult{}, err
	}
	if k <= 0 {
		k = 12
	}
	if weeks <= 0 {
		weeks = 3
	}
	opt, err := e.Sys.CurrentSnapshot().Optimize(k, 0)
	if err != nil {
		return StabilityResult{}, err
	}
	// Each week is its own call: churn mutates the topology in between.
	deployed := []anyopt.Config{opt.Config}
	base := e.Sys.MeasureConfigurations(deployed)[0]
	mean0, _ := predict.MeasuredMeanRTT(base.RTTs)
	res := StabilityResult{Weeks: []StabilityWeek{{Week: 0, UnchangedFrac: 1, MeanRTT: mean0}}}
	for w := 1; w <= weeks; w++ {
		topology.Churn(e.Sys.Topo, churnPerWeek, e.Seed*100+int64(w))
		week := e.Sys.MeasureConfigurations(deployed)[0]
		same, n := 0, 0
		for c, s0 := range base.Catchments {
			if s1, ok := week.Catchments[c]; ok {
				n++
				if s0 == s1 {
					same++
				}
			}
		}
		mean, _ := predict.MeasuredMeanRTT(week.RTTs)
		res.Weeks = append(res.Weeks, StabilityWeek{
			Week:          w,
			UnchangedFrac: float64(same) / float64(n),
			MeanRTT:       mean,
		})
	}
	return res, nil
}

// AblationResult compares a design choice's on/off behavior.
type AblationResult struct {
	Name     string
	Rows     [][2]string
	Comments string
}

// Render formats the ablation.
func (r AblationResult) Render() string {
	out := fmt.Sprintf("Ablation: %s\n", r.Name)
	for _, row := range r.Rows {
		out += fmt.Sprintf("  %-42s %s\n", row[0], row[1])
	}
	if r.Comments != "" {
		out += "  " + r.Comments + "\n"
	}
	return out
}

// arrivalOrderFlips returns the mean Fig 4a flip fraction with the
// arrival-order tie-breaker on (this environment) and off (the same topology
// under spec-only routers).
func (e *Env) arrivalOrderFlips() (on, off float64, err error) {
	on = analysis.Mean(e.Fig4a().FlipFracs())

	offOpts := anyopt.DefaultOptions()
	offOpts.Topology = e.Sys.Topo.Params
	offOpts.Discovery.SimCfg.ArrivalOrderTieBreak = false
	offSys, err := anyopt.New(offOpts)
	if err != nil {
		return 0, 0, err
	}
	offEnv := &Env{Sys: offSys, Seed: e.Seed}
	return on, analysis.Mean(offEnv.Fig4a().FlipFracs()), nil
}

// AblationArrivalOrder quantifies what the arrival-order tie-breaker model
// buys: with it off (spec-only routers), reversing announcement order can't
// flip catchments.
func (e *Env) AblationArrivalOrder() (AblationResult, error) {
	onFlips, offFlips, err := e.arrivalOrderFlips()
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{
		Name: "arrival-order tie-breaker (Cisco/Juniper oldest-route rule)",
		Rows: [][2]string{
			{"mean catchment flip on order reversal, ON", fmt.Sprintf("%.1f%%", 100*onFlips)},
			{"mean catchment flip on order reversal, OFF", fmt.Sprintf("%.1f%%", 100*offFlips)},
		},
		Comments: "with spec-compliant routers announcement order is irrelevant; the paper's §4.2 machinery exists because deployed routers are not spec-compliant here",
	}, nil
}

// AblationTwoLevel counts experiments: flat pairwise over sites vs the
// two-level decomposition (§4.3).
func (e *Env) AblationTwoLevel() AblationResult {
	nSites := len(e.Sys.TB.Sites)
	providers := e.Sys.TB.TransitProviders()
	flat := nSites * (nSites - 1)                     // both orders
	twoLevel := len(providers) * (len(providers) - 1) // provider pairs, both orders
	for _, p := range providers {
		k := len(e.Sys.TB.SitesOfTransit(p))
		twoLevel += k * (k - 1) / 2
	}
	return AblationResult{
		Name: "two-level preference discovery (§4.3)",
		Rows: [][2]string{
			{"flat order-aware pairwise experiments", fmt.Sprint(flat)},
			{"two-level experiments (provider + intra-AS)", fmt.Sprint(twoLevel)},
			{"reduction", fmt.Sprintf("%.1fx", float64(flat)/float64(twoLevel))},
		},
	}
}

// AblationRTTHeuristic measures the prediction-agreement cost of replacing
// measured intra-AS preferences with the §4.3 RTT heuristic.
func (e *Env) AblationRTTHeuristic() (AblationResult, error) {
	if err := e.Discover(); err != nil {
		return AblationResult{}, err
	}
	snap := e.Sys.CurrentSnapshot()
	heur := &predict.Predictor{
		TB:              snap.TB,
		Providers:       snap.Pred.Providers,
		RTT:             snap.RTT,
		UseRTTHeuristic: true,
	}
	cfg := e.Sys.AllSitesConfig()
	a := snap.Pred.All(cfg)
	b := heur.All(cfg)
	same, n := 0, 0
	for c, s := range a {
		if s2, ok := b[c]; ok {
			n++
			if s == s2 {
				same++
			}
		}
	}
	return AblationResult{
		Name: "intra-AS RTT heuristic vs measured site preferences (§4.3)",
		Rows: [][2]string{
			{"catchment agreement over all-sites config", fmt.Sprintf("%.1f%% of %d clients", 100*float64(same)/float64(n), n)},
		},
	}, nil
}

// AblationSolvers compares the exhaustive SPLPO solver against the
// branch-and-bound and the baselines on the discovered instance.
func (e *Env) AblationSolvers(k int) (AblationResult, error) {
	if err := e.Discover(); err != nil {
		return AblationResult{}, err
	}
	snap := e.Sys.CurrentSnapshot()
	in, _ := snap.Pred.BuildInstance(snap.AnnOrder)
	start := time.Now()
	exact, evaluated, err := splpo.Exhaustive(in, splpo.Options{ExactSize: k})
	if err != nil {
		return AblationResult{}, err
	}
	exactTime := time.Since(start)
	start = time.Now()
	bnb, _, _, err := splpo.Solve(in, splpo.Options{ExactSize: k}, nil)
	if err != nil {
		return AblationResult{}, err
	}
	bnbTime := time.Since(start)
	greedy, err := splpo.GreedyByCost(in, k)
	if err != nil {
		return AblationResult{}, err
	}
	rng := rand.New(rand.NewSource(e.Seed))
	random, err := splpo.BestRandom(in, k, 3, rng)
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{
		Name: fmt.Sprintf("SPLPO solvers at k=%d (%d subsets enumerated)", k, evaluated),
		Rows: [][2]string{
			{"exhaustive mean cost", fmt.Sprintf("%.1f ms in %v", exact.MeanCost, exactTime.Round(time.Millisecond))},
			{"branch-and-bound mean cost", fmt.Sprintf("%.1f ms in %v", bnb.MeanCost, bnbTime.Round(time.Millisecond))},
			{"greedy-by-unicast mean cost", fmt.Sprintf("%.1f ms", greedy.MeanCost)},
			{"best-of-3-random mean cost", fmt.Sprintf("%.1f ms", random.MeanCost)},
		},
	}, nil
}
