package predict

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"anyopt/internal/analysis"
	"anyopt/internal/core/discovery"
	"anyopt/internal/core/prefs"
	"anyopt/internal/core/splpo"
	"anyopt/internal/testbed"
	"anyopt/internal/topology"
)

// pipeline runs the full two-level discovery campaign once per test binary —
// it is the expensive fixture every prediction test shares.
type pipeline struct {
	tb   *testbed.Testbed
	disc *discovery.Discovery
	pred *Predictor
	rtt  *discovery.RTTTable
}

var sharedPipeline *pipeline

func getPipeline(t *testing.T) *pipeline {
	t.Helper()
	if sharedPipeline != nil {
		return sharedPipeline
	}
	topo, err := topology.Generate(topology.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	tb, err := testbed.New(topo, testbed.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := discovery.New(tb, discovery.DefaultConfig())
	pred, rtt, err := NewPredictor(tb, d, false)
	if err != nil {
		t.Fatal(err)
	}
	sharedPipeline = &pipeline{tb: tb, disc: d, pred: pred, rtt: rtt}
	return sharedPipeline
}

// randomConfig picks a random subset of sites (size between 2 and 14) in a
// provider-grouped announcement order.
func randomConfig(p *Predictor, rng *rand.Rand, size int) Config {
	n := len(p.TB.Sites)
	open := splpo.SiteSetOf(n, rng.Perm(n)[:size]...)
	annProv := make([]prefs.Item, 0)
	for _, prov := range p.TB.TransitProviders() {
		annProv = append(annProv, prefs.Item(prov))
	}
	return p.SiteSetToConfig(open, annProv)
}

func TestCatchmentPredictionAccuracy(t *testing.T) {
	// §5.2 / Figure 5a: predict catchments for random configurations, deploy
	// them, compare. The paper reports >93% accuracy per configuration.
	pl := getPipeline(t)
	rng := rand.New(rand.NewSource(42))
	var accs []float64
	for trial := 0; trial < 8; trial++ {
		size := 2 + rng.Intn(13)
		cfg := randomConfig(pl.pred, rng, size)
		predicted := pl.pred.All(cfg)
		measured := pl.disc.Measure([]discovery.Deployment{{Sites: cfg}}, false)[0]
		acc, n := Accuracy(predicted, measured.Catchments)
		if n < 100 {
			t.Fatalf("config %v: only %d comparable clients", cfg, n)
		}
		accs = append(accs, acc)
		sw := pl.pred.Sweep(cfg)
		t.Logf("config %v: accuracy %.3f over %d clients (predictable %.2f)",
			cfg, acc, n, float64(sw.Predicted)/float64(len(sw.Catch)))
	}
	mean := analysis.Mean(accs)
	t.Logf("mean accuracy %.3f (paper: 0.947)", mean)
	if mean < 0.85 {
		t.Errorf("mean catchment accuracy %.3f below 0.85", mean)
	}
	for i, a := range accs {
		if a < 0.75 {
			t.Errorf("trial %d accuracy %.3f below 0.75", i, a)
		}
	}
}

func TestMeanRTTPredictionError(t *testing.T) {
	// §5.2 / Figures 5b–5c: predicted vs measured mean RTT. Paper: mean
	// relative error ≤4.6%, 80% of configs within 6 ms absolute.
	pl := getPipeline(t)
	rng := rand.New(rand.NewSource(7))
	var relErrs, absErrsMs []float64
	for trial := 0; trial < 8; trial++ {
		size := 2 + rng.Intn(13)
		cfg := randomConfig(pl.pred, rng, size)
		predMean, n := pl.pred.Sweep(cfg).MeanRTT()
		if n == 0 {
			t.Fatalf("config %v: no predictable clients with RTT", cfg)
		}
		measMean, m := MeasuredMeanRTT(pl.disc.Measure([]discovery.Deployment{{Sites: cfg}}, true)[0].RTTs)
		if m == 0 {
			t.Fatalf("config %v: no measured RTTs", cfg)
		}
		rel := analysis.RelErr(float64(predMean), float64(measMean))
		absMs := math.Abs(float64(predMean-measMean)) / float64(time.Millisecond)
		relErrs = append(relErrs, rel)
		absErrsMs = append(absErrsMs, absMs)
		t.Logf("config %v: predicted %v measured %v (rel %.3f)", cfg, predMean, measMean, rel)
	}
	meanRel := analysis.Mean(relErrs)
	t.Logf("mean relative error %.3f (paper: 0.046)", meanRel)
	if meanRel > 0.12 {
		t.Errorf("mean relative RTT error %.3f too high", meanRel)
	}
	if analysis.CDFAt(absErrsMs, 10) < 0.5 {
		t.Errorf("fewer than half of configs within 10 ms absolute error: %v", absErrsMs)
	}
}

func TestPredictorRTTHeuristicClose(t *testing.T) {
	// §4.3: replacing measured intra-AS prefs with the RTT heuristic should
	// barely change predictions (IGP distance correlates with RTT).
	pl := getPipeline(t)
	heur := &Predictor{
		TB:              pl.pred.TB,
		Providers:       pl.pred.Providers,
		Sites:           nil,
		RTT:             pl.rtt,
		UseRTTHeuristic: true,
	}
	cfg := Config{1, 2, 12, 6, 7, 9, 11, 4, 13} // Telia + NTT + TATA sites
	a := pl.pred.All(cfg)
	b := heur.All(cfg)
	same, n := 0, 0
	for c, s := range a {
		s2, ok := b[c]
		if !ok {
			continue
		}
		n++
		if s == s2 {
			same++
		}
	}
	if n == 0 {
		t.Fatal("no overlap")
	}
	frac := float64(same) / float64(n)
	t.Logf("RTT heuristic agreement: %.3f over %d clients", frac, n)
	if frac < 0.85 {
		t.Errorf("heuristic agreement %.3f below 0.85", frac)
	}
}

func TestSingleSiteConfigTrivial(t *testing.T) {
	pl := getPipeline(t)
	cfg := Config{5}
	for _, c := range pl.pred.Providers.Clients()[:50] {
		site, ok := pl.pred.Catchment(c, cfg)
		if !ok {
			continue
		}
		if site != 5 {
			t.Fatalf("client %d predicted site %d under single-site config", c, site)
		}
	}
	if sw := pl.pred.Sweep(cfg); float64(sw.Predicted)/float64(len(sw.Catch)) < 0.95 {
		t.Errorf("single-site config should be predictable for nearly everyone")
	}
}

func TestPredictorErrors(t *testing.T) {
	pl := getPipeline(t)
	if _, ok := pl.pred.Catchment(prefs.Client(1), Config{99}); ok {
		t.Error("unknown site accepted")
	}
	if _, ok := pl.pred.Catchment(prefs.Client(1), nil); ok {
		t.Error("empty config accepted")
	}
	if _, ok := pl.pred.Catchment(prefs.Client(999999999), Config{1}); ok {
		t.Error("unknown client predicted")
	}
}

func TestBuildInstanceAndOptimize(t *testing.T) {
	// End-to-end §5.3: build the SPLPO instance, find the best 4-site
	// configuration exhaustively, and verify it beats greedy-by-unicast and
	// random baselines on predicted mean RTT.
	pl := getPipeline(t)
	annProv, frac := pl.pred.Providers.BestAnnouncementOrder(6)
	if frac < 0.8 {
		t.Fatalf("best announcement order only covers %.2f of clients", frac)
	}
	in, clients := pl.pred.BuildInstance(annProv)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(clients) != len(in.Clients) {
		t.Fatal("client mapping length mismatch")
	}
	if len(in.Clients) < 200 {
		t.Fatalf("only %d orderable clients in instance", len(in.Clients))
	}

	const k = 4
	best, _, err := splpo.Exhaustive(in, splpo.Options{ExactSize: k})
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := splpo.GreedyByCost(in, k)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	random, err := splpo.RandomSubset(in, k, rng)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("mean cost (ms): anyopt=%.1f greedy=%.1f random=%.1f",
		best.MeanCost, greedy.MeanCost, random.MeanCost)
	if best.MeanCost > greedy.MeanCost+1e-9 {
		t.Errorf("exhaustive (%v) worse than greedy (%v)", best.MeanCost, greedy.MeanCost)
	}
	if best.MeanCost > random.MeanCost+1e-9 {
		t.Errorf("exhaustive (%v) worse than random (%v)", best.MeanCost, random.MeanCost)
	}

	// The optimized config must also deploy well: measured mean RTT within
	// 25% of the predicted optimum.
	cfg := pl.pred.SiteSetToConfig(best.Open, annProv)
	if len(cfg) != k {
		t.Fatalf("SiteSetToConfig returned %v", cfg)
	}
	if got := ConfigToSiteSet(in.NumSites, cfg); !got.Equal(best.Open) {
		t.Fatalf("ConfigToSiteSet mismatch: %v vs %v", got, best.Open)
	}
	meas, _ := MeasuredMeanRTT(pl.disc.Measure([]discovery.Deployment{{Sites: cfg}}, true)[0].RTTs)
	pred := time.Duration(best.MeanCost * float64(time.Millisecond))
	if rel := analysis.RelErr(float64(meas), float64(pred)); rel > 0.25 {
		t.Errorf("deployed optimum mean %v deviates %.0f%% from predicted %v", meas, rel*100, pred)
	}
}

func TestRankingConsistentWithCatchment(t *testing.T) {
	pl := getPipeline(t)
	annProv := make([]prefs.Item, 0)
	for _, prov := range pl.tb.TransitProviders() {
		annProv = append(annProv, prefs.Item(prov))
	}
	cfg := Config{1, 3, 4, 5, 6, 10}
	enabled := map[int]bool{}
	for _, id := range cfg {
		enabled[id] = true
	}
	checked := 0
	for _, c := range pl.pred.Providers.Clients() {
		ranking, ok := pl.pred.Ranking(c, annProv)
		if !ok {
			continue
		}
		if len(ranking) != len(pl.tb.Sites) {
			t.Fatalf("ranking has %d sites", len(ranking))
		}
		want := -1
		for _, s := range ranking {
			if enabled[s] {
				want = s
				break
			}
		}
		got, ok := pl.pred.Catchment(c, cfg)
		if !ok {
			continue
		}
		checked++
		if got != want {
			// Rankings use the global provider announcement order; the
			// config order is a sub-order of it, so they must agree.
			t.Fatalf("client %d: ranking says %d, Catchment says %d", c, want, got)
		}
	}
	if checked < 100 {
		t.Fatalf("only %d clients checked", checked)
	}
}
