package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"anyopt"
	"anyopt/internal/analysis"
	"anyopt/internal/campaign"
	"anyopt/internal/core/discovery"
	"anyopt/internal/core/predict"
	"anyopt/internal/core/prefs"
	"anyopt/internal/testbed"
)

const (
	// minCampaigns is the fewest campaigns a run measures whatever the
	// budget: two are needed to check that the campaign repeats byte for byte.
	minCampaigns = 2
	// extraSetups systems are built and dropped before the first campaign, so
	// setup_s is a median of several draws even when the budget fits two
	// campaigns.
	extraSetups = 5
)

// campaignSystem builds a fresh system for one campaign. A faulty campaign
// injects the "paper" fault scenario and journals every experiment to a
// checkpoint file at the returned path.
func (r *run) campaignSystem(faulty bool, i int) (sys *anyopt.System, journal string, err error) {
	sys, err = r.cfg.newSystem(faulty)
	if err != nil || !faulty {
		return sys, "", err
	}
	journal = filepath.Join(r.cfg.tmp, fmt.Sprintf("journal-%d.ckpt", i))
	ck, err := campaign.NewCheckpoint(journal)
	if err != nil {
		return nil, "", err
	}
	sys.Disc.SetJournal(ck)
	return sys, journal, nil
}

// checkCampaign applies the per-campaign correctness checks and returns the
// campaign's digest.
func (r *run) checkCampaign(sys *anyopt.System, runErr error) string {
	r.check(runErr == nil, "RunDiscovery: %v", runErr)
	r.check(sys.Disc.Err() == nil, "campaign infrastructure error: %v", sys.Disc.Err())
	want := discovery.CampaignExperiments(sys.TB, false)
	r.check(sys.Experiments() == want, "campaign ran %d experiments, schedule has %d", sys.Experiments(), want)
	if runErr != nil {
		return ""
	}
	sha, err := digest(sys)
	r.check(err == nil, "campaign.Save: %v", err)
	return sha
}

// runCampaign is the campaign_paper / campaign_faulty workload: repeated
// {fresh anyopt.New, RunDiscovery} until the budget is spent.
func runCampaign(r *run, faulty bool) {
	var (
		st       opStats
		sys      *anyopt.System
		firstSHA string
	)
	setUp := func(i int) (journal string, ok bool) {
		t := time.Now()
		var err error
		sys, journal, err = r.campaignSystem(faulty, i)
		st.setupS = append(st.setupS, time.Since(t).Seconds())
		return journal, r.check(err == nil, "building system: %v", err)
	}
	for i := 0; i < extraSetups; i++ {
		if _, ok := setUp(i); !ok {
			return
		}
	}
	start := time.Now()
	for i := 0; i < minCampaigns || time.Since(start) < r.cfg.budget; i++ {
		journal, ok := setUp(i)
		if !ok {
			return
		}
		// Collect set-up garbage and the previous iteration's system: with a
		// live heap of a few MB the collector's pace, and with it the
		// campaign's speed, follows whatever else is reachable.
		runtime.GC()
		m0 := memStats()
		t1 := time.Now()
		err := sys.RunDiscovery()
		d := time.Since(t1)
		m1 := memStats()
		os.Remove(journal) // "" when the campaign keeps no journal

		sha := r.checkCampaign(sys, err)
		if i == 0 {
			firstSHA = sha
		}
		r.check(sha == firstSHA, "campaign %d saved %s, campaign 0 saved %s", i, sha, firstSHA)

		st.latMS = append(st.latMS, ms(d))
		st.wall += d
		st.allocMB += float64(m1.TotalAlloc-m0.TotalAlloc) / mb
		r.cfg.logf("  campaign %d: %.3fs, %.1f experiments/s (%d experiments), %d probes, %d quorum retries",
			i, d.Seconds(), float64(sys.Experiments())/d.Seconds(), sys.Experiments(), sys.Disc.ProbesSent, sys.Disc.QuorumRetries())
	}
	st.liveMB = liveHeapMB()
	r.cfg.logf("  campaign.Save sha256 %s", firstSHA)
	r.endToEnd(st)

	t := time.Now()
	world := sys
	if faulty {
		world = verifyAgainstFaultFree(r, sys)
	}
	if world != nil {
		verifyPrediction(r, sys, world)
	}
	r.cfg.logf("  verify_s %.2f (outside every metric)", time.Since(t).Seconds())
}

// verifiedConfigs seeded 8-site configurations are deployed to check the
// campaign's predictions. One configuration alone can fall below 0.90 (the
// paper reports a mean of 94.7%), so the check is on their mean.
const verifiedConfigs = 5

// verifyPrediction deploys seeded configurations on world, fault-free, and
// checks model's predictions of them against the measurements.
func verifyPrediction(r *run, model, world *anyopt.System) {
	rng := rand.New(rand.NewSource(r.cfg.seed))
	cfgs := make([]anyopt.Config, verifiedConfigs)
	for i := range cfgs {
		cfg, err := model.RandomConfig(8, rng)
		if !r.check(err == nil, "RandomConfig: %v", err) {
			return
		}
		cfgs[i] = cfg
	}
	var accs []float64
	for i, measured := range world.MeasureConfigurations(cfgs) {
		predicted, err := model.PredictCatchments(cfgs[i])
		if !r.check(err == nil, "PredictCatchments: %v", err) {
			return
		}
		acc, _ := predict.Accuracy(predicted, measured.Catchments)
		accs = append(accs, acc)
	}
	mean := analysis.Mean(accs)
	r.check(mean >= 0.90, "mean prediction accuracy %.3f over %d deployed configurations %v, want >= 0.90", mean, verifiedConfigs, accs)
	r.cfg.logf("  prediction accuracy: mean %.3f, min %.3f over %d deployed 8-site configurations", mean, slices.Min(accs), verifiedConfigs)
}

// maxRelationDrift bounds the share of preference relations on which a
// faulty campaign may differ from the fault-free one. At paper scale the
// paper fault scenario leaves a handful of ~160,000 measured rows without a
// 2-of-5 quorum; they are settled by plurality and a few relations in
// ~80,000 move. The self-healing property is therefore checked as a bound,
// like prediction accuracy, and the degraded rows are reported.
const maxRelationDrift = 0.001

// verifyAgainstFaultFree is the chaos-test property: the self-healing
// campaign reproduces the fault-free campaign's preferences for everything
// that does not involve a quarantined site. It returns the fault-free
// reference system, nil if that could not be built.
func verifyAgainstFaultFree(r *run, faulted *anyopt.System) *anyopt.System {
	degraded := 0
	for _, line := range faulted.Disc.FaultLog() {
		if strings.Contains(line, "plurality") {
			degraded++
		}
	}
	ref, err := r.cfg.newSystem(false)
	if !r.check(err == nil, "building reference system: %v", err) {
		return nil
	}
	if err := ref.RunDiscovery(); !r.check(err == nil, "reference campaign: %v", err) {
		return nil
	}
	skipProvider, skipSite := quarantineSkips(faulted.TB, nil, faulted.Disc.Quarantined())
	diff, total, err := prefDrift(ref.Pred, faulted.Pred, skipProvider, skipSite)
	r.check(err == nil, "%v", err)
	r.check(float64(diff) <= maxRelationDrift*float64(total),
		"%d of %d relations differ from the fault-free campaign, more than %g", diff, total, maxRelationDrift)
	r.cfg.logf("  %d of %d relations differ from the fault-free campaign (bound %g); %d experiments settled rows by plurality; quarantined sites %v",
		diff, total, maxRelationDrift, degraded, faulted.Disc.QuarantinedSites())
	return ref
}

// quarantineSkips returns the relations to leave out when two campaigns on
// one testbed, with quarantine sets qa and qb, are compared: site-level
// relations touching a site either campaign quarantined, and provider-level
// relations of a provider the two measured through different representatives
// (Discovery.Representatives: the lowest site ID not quarantined).
func quarantineSkips(tb *testbed.Testbed, qa, qb map[int]string) (skipProvider, skipSite func(prefs.DumpedRelation) bool) {
	moved := map[prefs.Item]bool{}
	for _, p := range tb.TransitProviders() {
		repA, repB := 0, 0
		for _, s := range tb.SitesOfTransit(p) {
			if qa[s.ID] == "" && (repA == 0 || s.ID < repA) {
				repA = s.ID
			}
			if qb[s.ID] == "" && (repB == 0 || s.ID < repB) {
				repB = s.ID
			}
		}
		moved[prefs.Item(p)] = repA != repB
	}
	skipProvider = func(rel prefs.DumpedRelation) bool { return moved[rel.I] || moved[rel.J] }
	skipSite = func(rel prefs.DumpedRelation) bool {
		return qa[int(rel.I)] != "" || qa[int(rel.J)] != "" || qb[int(rel.I)] != "" || qb[int(rel.J)] != ""
	}
	return skipProvider, skipSite
}

// prefDrift counts the preference relations — provider level, then every
// provider's site level — present in exactly one of two campaigns on the same
// testbed, ignoring those the skip functions select, and the relations of a
// it counted (skipped ones included).
func prefDrift(a, b *predict.Predictor, skipProvider, skipSite func(prefs.DumpedRelation) bool) (diff, total int, err error) {
	want := a.Providers.Dump()
	total = len(want)
	diff = relationsDiffer(want, b.Providers.Dump(), skipProvider)
	for _, p := range a.TB.TransitProviders() {
		sa, sb := a.Sites[p], b.Sites[p]
		if sa == nil || sb == nil {
			if sa != sb {
				return 0, 0, fmt.Errorf("provider %d has site preferences in only one campaign", p)
			}
			continue
		}
		want := sa.Dump()
		total += len(want)
		diff += relationsDiffer(want, sb.Dump(), skipSite)
	}
	return diff, total, nil
}

// relationsDiffer counts relations present in exactly one of a and b,
// ignoring those skip selects. Set comparison: skipped pairs change the
// order Dump follows without changing the relations themselves.
func relationsDiffer(a, b []prefs.DumpedRelation, skip func(prefs.DumpedRelation) bool) int {
	index := func(rels []prefs.DumpedRelation) map[prefs.DumpedRelation]bool {
		set := make(map[prefs.DumpedRelation]bool, len(rels))
		for _, rel := range rels {
			if !skip(rel) {
				set[rel] = true
			}
		}
		return set
	}
	inA, inB := index(a), index(b)
	diff := 0
	for _, rel := range a {
		if inA[rel] && !inB[rel] {
			diff++
		}
	}
	for _, rel := range b {
		if inB[rel] && !inA[rel] {
			diff++
		}
	}
	return diff
}
