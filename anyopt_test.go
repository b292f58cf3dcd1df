package anyopt

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"anyopt/internal/core/discovery"
	"anyopt/internal/core/predict"
)

// sharedSystem amortizes the discovery campaign across facade tests.
var sharedSystem *System

func getSystem(t *testing.T) *System {
	t.Helper()
	if sharedSystem != nil {
		return sharedSystem
	}
	sys, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RunDiscovery(); err != nil {
		t.Fatal(err)
	}
	sharedSystem = sys
	return sys
}

func TestNewValidatesParams(t *testing.T) {
	opts := DefaultOptions()
	opts.Topology.NumTier1 = 0
	if _, err := New(opts); err == nil {
		t.Error("invalid topology params accepted")
	}
}

func TestDiscoveryRequired(t *testing.T) {
	sys, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Every campaign read is a Snapshot method, so "discovery required" is
	// one fact: there is no snapshot yet. (The HTTP 409 it turns into is
	// TestPredictRequiresDiscovery's.)
	if sys.CurrentSnapshot() != nil {
		t.Error("a snapshot exists before discovery")
	}
	if _, err := sys.PredictCatchments(Config{1}); err == nil {
		t.Error("prediction before discovery succeeded")
	}
	if _, err := sys.RandomConfig(4, rand.New(rand.NewSource(1))); err == nil {
		t.Error("random config before discovery succeeded")
	}
}

// failingJournal refuses every checkpoint write, the way a full disk would.
type failingJournal struct{}

func (failingJournal) Lookup(uint64) (discovery.JournalEntry, bool) {
	return discovery.JournalEntry{}, false
}

func (failingJournal) Record(uint64, discovery.JournalEntry) error {
	return errors.New("disk full")
}

// TestRunDiscoveryRefusesFailedCampaign: a campaign whose checkpoint writes
// failed is incomplete, so RunDiscovery reports the failure and publishes no
// snapshot built over it.
func TestRunDiscoveryRefusesFailedCampaign(t *testing.T) {
	sys, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sys.Disc.SetJournal(failingJournal{})
	err = sys.RunDiscovery()
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("RunDiscovery = %v, want the journal's disk full error", err)
	}
	if snap := sys.CurrentSnapshot(); snap != nil {
		t.Fatalf("a snapshot with %d experiments was published over a failed campaign", snap.Experiments)
	}
}

func TestEndToEndOptimizeBeatsBaselines(t *testing.T) {
	sys := getSystem(t)
	snap := sys.CurrentSnapshot()
	const k = 6

	opt, err := snap.Optimize(k, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(opt.Config) != k {
		t.Fatalf("optimized config %v has %d sites", opt.Config, len(opt.Config))
	}
	if opt.OrderableClients < 200 {
		t.Errorf("only %d orderable clients", opt.OrderableClients)
	}

	greedy, err := snap.GreedyConfig(k)
	if err != nil {
		t.Fatal(err)
	}
	random, err := sys.RandomConfig(k, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}

	measure := func(cfg Config) time.Duration {
		mean, n := predict.MeasuredMeanRTT(sys.MeasureConfigurations([]Config{cfg})[0].RTTs)
		if n == 0 {
			t.Fatalf("config %v: no measurements", cfg)
		}
		return mean
	}
	mOpt := measure(opt.Config)
	mGreedy := measure(greedy)
	mRandom := measure(random)
	t.Logf("measured means: anyopt=%v greedy=%v random=%v (predicted %v)",
		mOpt, mGreedy, mRandom, opt.PredictedMean)

	// §5.3's headline: the optimizer's config beats greedy-by-unicast and
	// random on the deployed network (small tolerance for noise).
	if float64(mOpt) > float64(mGreedy)*1.02 {
		t.Errorf("anyopt (%v) did not beat greedy (%v)", mOpt, mGreedy)
	}
	if float64(mOpt) > float64(mRandom)*1.02 {
		t.Errorf("anyopt (%v) did not beat random (%v)", mOpt, mRandom)
	}
}

func TestPredictionMatchesDeployment(t *testing.T) {
	sys := getSystem(t)
	cfg := Config{1, 3, 4, 5, 6, 10}
	predicted := sys.CurrentSnapshot().PredictCatchments(cfg)
	measured := sys.MeasureConfigurations([]Config{cfg})[0]
	acc, n := predict.Accuracy(predicted, measured.Catchments)
	if n < 100 {
		t.Fatalf("only %d comparable clients", n)
	}
	if acc < 0.85 {
		t.Errorf("catchment accuracy %.3f below 0.85", acc)
	}
}

func TestAllSitesAndPeers(t *testing.T) {
	sys := getSystem(t)
	all := sys.AllSitesConfig()
	if len(all) != 15 {
		t.Errorf("all-sites config has %d sites", len(all))
	}
	seen := map[int]bool{}
	for _, id := range all {
		if seen[id] {
			t.Errorf("duplicate site %d in all-sites config", id)
		}
		seen[id] = true
	}
	if got := len(sys.AllPeerLinks()); got != 104 {
		t.Errorf("peer links = %d, want 104", got)
	}
}

func TestOnePassPeeringViaFacade(t *testing.T) {
	sys := getSystem(t)
	base := Config{1, 3, 4, 5, 6, 10}
	peers := sys.AllPeerLinks()[:10]
	res := sys.OnePassPeering(base, peers)
	if len(res.Reports) != 10 {
		t.Fatalf("reports = %d", len(res.Reports))
	}
	if res.BaselineMean <= 0 {
		t.Error("no baseline")
	}
}

func TestOptimizeWithBudget(t *testing.T) {
	sys := getSystem(t)
	res, err := sys.CurrentSnapshot().Optimize(0, 500)
	if err != nil {
		t.Fatal(err)
	}
	if res.SubsetsEvaluated > 500 {
		t.Errorf("budget exceeded: %d", res.SubsetsEvaluated)
	}
	if len(res.Config) == 0 {
		t.Error("empty config from budgeted search")
	}
	if res.Proven {
		t.Error("a budget that ran out reported a proven optimum")
	}
}

// TestCampaignExperimentsMatchesSchedule pins discovery.CampaignExperiments —
// the job-progress denominator — to the schedule RunDiscovery really runs,
// with measured site preferences and with the RTT heuristic the internet
// preset uses in their place.
func TestCampaignExperimentsMatchesSchedule(t *testing.T) {
	for _, heuristic := range []bool{false, true} {
		opts := DefaultOptions()
		opts.UseRTTHeuristic = heuristic
		sys, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.RunDiscovery(); err != nil {
			t.Fatal(err)
		}
		want := discovery.CampaignExperiments(sys.TB, heuristic)
		if got := sys.Experiments(); got != want {
			t.Errorf("UseRTTHeuristic=%v: campaign ran %d experiments, CampaignExperiments says %d", heuristic, got, want)
		}
		if got := sys.Disc.CompletedExperiments(); got != uint64(want) {
			t.Errorf("UseRTTHeuristic=%v: %d experiments completed, CampaignExperiments says %d", heuristic, got, want)
		}
	}
}

func TestExperimentsCounter(t *testing.T) {
	sys := getSystem(t)
	before := sys.Experiments()
	sys.MeasureConfigurations([]Config{{1}})
	if sys.Experiments() != before+1 {
		t.Errorf("experiment counter did not advance")
	}
}

func TestOptimizeWithLoadsAndCaps(t *testing.T) {
	sys := getSystem(t)
	snap := sys.CurrentSnapshot()
	loads := map[Client]float64{}
	var total float64
	for _, tg := range sys.Topo.Targets {
		loads[Client(tg.AS)] = 1
		total++
	}
	const k = 6

	// Without caps, load-aware matches plain optimize on uniform loads.
	free, err := snap.OptimizeWith(OptimizeOptions{K: k, Loads: loads})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := snap.Optimize(k, 0)
	if err != nil {
		t.Fatal(err)
	}
	if free.PredictedMean != plain.PredictedMean {
		t.Errorf("uniform load-aware mean %v != plain %v", free.PredictedMean, plain.PredictedMean)
	}

	// Find the hottest site under the free optimum and cap below its load:
	// the capped optimum must respect the cap and cannot be better.
	hotSite, hottest := 0, 0.0
	for site, l := range snap.PredictSiteLoads(free.Config, loads) {
		if l > hottest {
			hotSite, hottest = site, l
		}
	}
	if hottest <= total/float64(k) {
		t.Skip("free optimum already balanced; nothing to cap")
	}
	caps := map[int]float64{}
	for _, s := range sys.TB.Sites {
		caps[s.ID] = hottest * 0.9
	}
	capped, err := snap.OptimizeWith(OptimizeOptions{K: k, Loads: loads, Caps: caps})
	if err != nil {
		t.Skipf("cap at 90%% of hotspot infeasible: %v", err)
	}
	if capped.PredictedMean < free.PredictedMean {
		t.Errorf("capped optimum %v beat the unconstrained one %v", capped.PredictedMean, free.PredictedMean)
	}
	for site, l := range snap.PredictSiteLoads(capped.Config, loads) {
		if l > caps[site]+1e-9 {
			t.Errorf("site %d load %.0f exceeds cap %.0f", site, l, caps[site])
		}
	}

	// Exclude + Caps, reachable only since the options share one struct: the
	// free optimum's hottest site is out for maintenance and the rest must
	// still balance. The answer avoids the site, respects every cap, and
	// cannot beat the capped optimum it is a restriction of.
	both, err := snap.OptimizeWith(OptimizeOptions{K: k, Loads: loads, Caps: caps, Exclude: []int{hotSite}})
	if err != nil {
		t.Fatalf("exclude + caps: %v", err)
	}
	if len(both.Config) != k || !both.Proven {
		t.Errorf("exclude + caps: config %v, proven %v; want %d sites, proven", both.Config, both.Proven, k)
	}
	for _, id := range both.Config {
		if id == hotSite {
			t.Errorf("excluded site %d present in %v", hotSite, both.Config)
		}
	}
	if both.PredictedMean < capped.PredictedMean {
		t.Errorf("exclude + caps optimum %v beat the capped one %v", both.PredictedMean, capped.PredictedMean)
	}
	// Held against the instance the optimizer solved (PredictSiteLoads also
	// counts clients outside the optimization, so it is only indicative).
	in, _ := snap.Pred.BuildInstanceWeighted(snap.AnnOrder, loads, caps)
	if st := in.EvaluateSet(predict.ConfigToSiteSet(in.NumSites, both.Config), nil); !st.Feasible() {
		t.Errorf("exclude + caps optimum %v is infeasible: %+v", both.Config, st)
	}
}

func TestPredictSiteLoadsWeighted(t *testing.T) {
	snap := getSystem(t).CurrentSnapshot()
	cfg := Config{1, 6}
	uniform := snap.PredictSiteLoads(cfg, nil)
	var totalU float64
	for _, l := range uniform {
		totalU += l
	}
	predicted := snap.PredictCatchments(cfg)
	if int(totalU) != len(predicted) {
		t.Errorf("uniform loads sum %.0f != %d predicted clients", totalU, len(predicted))
	}
	// Doubling every client's load doubles every site's.
	loads := map[Client]float64{}
	for c := range predicted {
		loads[c] = 2
	}
	for site, l := range snap.PredictSiteLoads(cfg, loads) {
		if l != 2*uniform[site] {
			t.Errorf("site %d: %v != 2×%v", site, l, uniform[site])
		}
	}
}

func TestOptimizeWithExclude(t *testing.T) {
	snap := getSystem(t).CurrentSnapshot()
	full, err := snap.Optimize(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Exclude the first site of the unrestricted optimum.
	excluded := full.Config[0]
	res, err := snap.OptimizeWith(OptimizeOptions{Exclude: []int{excluded}})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range res.Config {
		if id == excluded {
			t.Fatalf("excluded site %d present in %v", excluded, res.Config)
		}
	}
	if res.PredictedMean < full.PredictedMean {
		t.Errorf("restricted optimum %v beat the unrestricted one %v", res.PredictedMean, full.PredictedMean)
	}
	if _, err := snap.OptimizeWith(OptimizeOptions{Exclude: []int{99}}); err == nil {
		t.Error("unknown site excluded without error")
	}
}

func TestOptimizeWithAnytimeMatchesExact(t *testing.T) {
	snap := getSystem(t).CurrentSnapshot()
	exact, err := snap.Optimize(6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !exact.Proven {
		t.Errorf("15 sites without a budget: %+v, want a proven optimum", exact)
	}
	// A time budget routes the same question to the branch-and-bound, which
	// lands on the same optimum and proves it well inside the deadline.
	bnb, err := snap.OptimizeWith(OptimizeOptions{K: 6, TimeBudget: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(bnb.Config, exact.Config) || bnb.PredictedMean != exact.PredictedMean || !bnb.Proven {
		t.Errorf("time-budgeted solve: %v mean %v proven %v; exact optimum %v mean %v",
			bnb.Config, bnb.PredictedMean, bnb.Proven, exact.Config, exact.PredictedMean)
	}

	// A deadline already past still answers with a configuration, unproven.
	cut, err := snap.OptimizeWith(OptimizeOptions{K: 6, TimeBudget: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(cut.Config) != 6 || cut.Proven || cut.PredictedMean < exact.PredictedMean {
		t.Errorf("expired deadline: %v mean %v proven %v; want 6 sites, unproven, no better than %v",
			cut.Config, cut.PredictedMean, cut.Proven, exact.PredictedMean)
	}

	// Exclusion carries through the branch-and-bound too.
	excl, err := snap.OptimizeWith(OptimizeOptions{
		K: 6, TimeBudget: time.Minute, Exclude: []int{exact.Config[0]},
	})
	if err != nil {
		t.Fatal(err)
	}
	if slices.Contains(excl.Config, exact.Config[0]) || !excl.Proven {
		t.Errorf("excluded site %d: got %v, proven %v", exact.Config[0], excl.Config, excl.Proven)
	}
}
