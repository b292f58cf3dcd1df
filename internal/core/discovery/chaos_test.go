package discovery

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"anyopt/internal/core/prefs"
	"anyopt/internal/fault"
	"anyopt/internal/topology"
)

// chaosCampaign is one full mini-campaign's output: everything the predictor
// would consume, plus the self-healing bookkeeping.
type chaosCampaign struct {
	rtt         map[int]map[prefs.Client]int64
	providers   []prefs.DumpedRelation
	siteRels    []prefs.DumpedRelation
	quarantined map[int]string
	faultLog    []string
	experiments int
}

// chaosSites is the campaign's singleton-measurement set: every provider's
// representative, the full NTT footprint, and the blackout victim.
var chaosSites = []int{1, 3, 4, 5, 6, 7, 9, 10, 11}

// chaosBlackout is the site the chaos tests kill for the whole campaign:
// Newark (NTT). It is not a representative (NTT's is site 6) and NTT keeps
// three live sites, so the campaign can quarantine it and still discover
// every provider pair and the surviving NTT site pairs.
const chaosBlackout = 11

// chaosFaults builds the differential test's fault mix: flaps, a trickle of
// dropped and delayed UPDATEs, per-traversal probe loss, and one blacked-out
// site. Rates are paper-modest so each quorum attempt has a good chance of
// running clean; the quorum absorbs the attempts that do not.
func chaosFaults(seed int64) *fault.Config {
	return &fault.Config{
		Seed:            seed,
		FlapProb:        0.05,
		FlapMaxLinks:    1,
		FlapWindow:      20 * time.Minute,
		FlapDownMin:     30 * time.Second,
		FlapDownMax:     2 * time.Minute,
		UpdateDropProb:  5e-6,
		UpdateDelayProb: 1e-5,
		UpdateDelayMax:  100 * time.Millisecond,
		ProbeLossProb:   0.005,
		BlackoutSites:   []int{chaosBlackout},
	}
}

// runChaosCampaign executes the mini-campaign — singleton RTTs, provider
// preference discovery, NTT site preference discovery — under the given fault
// configuration (nil = fault-free).
func runChaosCampaign(t *testing.T, faults *fault.Config) chaosCampaign {
	t.Helper()
	tb := newTB(t)
	cfg := DefaultConfig()
	cfg.Noisy = false
	cfg.Faults = faults
	d := New(tb, cfg)

	tbl, err := d.MeasureRTTs(chaosSites)
	if err != nil {
		t.Fatal(err)
	}
	provStore, err := d.ProviderPrefs(d.Representatives())
	if err != nil {
		t.Fatal(err)
	}
	var ntt topology.ASN
	for _, a := range tb.Topo.Tier1s() {
		if a.Name == "NTT" {
			ntt = a.ASN
		}
	}
	siteStore, err := d.SitePrefs(ntt)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("campaign infrastructure error: %v", err)
	}
	return chaosCampaign{
		rtt:         tbl.Export(),
		providers:   provStore.Dump(),
		siteRels:    siteStore.Dump(),
		quarantined: d.Quarantined(),
		faultLog:    d.FaultLog(),
		experiments: d.Experiments,
	}
}

// relSet indexes dumped relations, dropping those touching the excluded item
// (pass a negative item to keep everything). Set comparison, not slice
// comparison: skipping quarantined pairs changes the client-first-seen order
// that Dump follows, without changing the relations themselves.
func relSet(rels []prefs.DumpedRelation, exclude prefs.Item) map[prefs.DumpedRelation]bool {
	out := make(map[prefs.DumpedRelation]bool, len(rels))
	for _, r := range rels {
		if exclude >= 0 && (r.I == exclude || r.J == exclude) {
			continue
		}
		out[r] = true
	}
	return out
}

// TestChaosCampaignConvergesToFaultFree is the differential acceptance test
// for the chaos layer: with faults injected at modest rates plus a permanent
// site blackout, the self-healing campaign (K-of-N quorum re-measurement +
// quarantine) must reproduce the fault-free campaign's outputs exactly for
// everything that does not involve the quarantined site.
func TestChaosCampaignConvergesToFaultFree(t *testing.T) {
	clean := runChaosCampaign(t, nil)
	faulted := runChaosCampaign(t, chaosFaults(7))

	if clean.quarantined != nil {
		t.Fatalf("fault-free campaign quarantined %v", clean.quarantined)
	}
	if len(clean.faultLog) != 0 {
		t.Fatalf("fault-free campaign has a fault log: %v", clean.faultLog)
	}
	if len(faulted.quarantined) != 1 || faulted.quarantined[chaosBlackout] == "" {
		t.Fatalf("quarantined = %v, want exactly site %d", faulted.quarantined, chaosBlackout)
	}
	if len(faulted.faultLog) == 0 {
		t.Fatal("faulted campaign produced no fault log; chaos layer not exercised")
	}
	if faulted.experiments != clean.experiments {
		t.Errorf("experiment counts diverged: faulted %d vs clean %d (schedule misaligned)",
			faulted.experiments, clean.experiments)
	}

	// Singleton RTTs: identical for every live site; empty for the blackout.
	for site, row := range clean.rtt {
		if site == chaosBlackout {
			continue
		}
		if !reflect.DeepEqual(row, faulted.rtt[site]) {
			t.Errorf("site %d: RTT row diverged under faults (%d vs %d clients)",
				site, len(row), len(faulted.rtt[site]))
		}
	}
	if n := len(faulted.rtt[chaosBlackout]); n != 0 {
		t.Errorf("blacked-out site %d answered %d RTT probes", chaosBlackout, n)
	}

	// Provider preference matrix: no representative is blacked out, so the
	// dumps must match relation for relation, in order.
	if !reflect.DeepEqual(clean.providers, faulted.providers) {
		t.Errorf("provider preference matrices diverged: %d vs %d relations",
			len(clean.providers), len(faulted.providers))
	}

	// NTT site-level preferences: the faulted run skips pairs touching the
	// quarantined site but must agree on every surviving pair.
	cleanLive := relSet(clean.siteRels, prefs.Item(chaosBlackout))
	faultedLive := relSet(faulted.siteRels, prefs.Item(chaosBlackout))
	if !reflect.DeepEqual(cleanLive, faultedLive) {
		t.Errorf("site preference relations diverged: %d vs %d live relations",
			len(cleanLive), len(faultedLive))
	}
	for r := range relSet(faulted.siteRels, -1) {
		if r.I == prefs.Item(chaosBlackout) || r.J == prefs.Item(chaosBlackout) {
			t.Errorf("faulted campaign recorded a relation for the quarantined site: %+v", r)
		}
	}
	// The log must show actual injected transport faults, not just the
	// quarantine bookkeeping — otherwise this test would pass vacuously with
	// the chaos layer unplugged.
	for _, want := range []string{
		"quarantine site 11", "skip simultaneous pair", "flap link=", "probe lost",
	} {
		found := false
		for _, line := range faulted.faultLog {
			if strings.Contains(line, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("fault log is missing %q; degradation must not be silent", want)
		}
	}
}

// TestChaosQuorumSkipsLockedRows is the differential test for the quorum's
// skip of locked rows: under the harsh fault scenario, a campaign whose
// retries probe only the rows still open must produce the RTT tables,
// preference stores, quarantine and schedule of one whose every attempt
// probes every row — with strictly fewer probes. The parallel-prefix RTT
// phase lays each prefix's rows end to end in one sweep, so it must skip by
// row, not by target position: its table matching, while its own probe count
// falls, is what shows the offset right.
func TestChaosQuorumSkipsLockedRows(t *testing.T) {
	harsh, err := fault.Scenario("harsh", 1)
	if err != nil {
		t.Fatal(err)
	}
	all := runCampaign(t, 2, harsh, true)
	skip := runCampaign(t, 2, harsh, false)

	if !reflect.DeepEqual(all.RTTs, skip.RTTs) {
		t.Error("RTT tables diverged")
	}
	if !reflect.DeepEqual(all.Provider, skip.Provider) || !reflect.DeepEqual(all.Naive, skip.Naive) {
		t.Error("provider preference stores diverged")
	}
	if !reflect.DeepEqual(all.Sites, skip.Sites) {
		t.Error("site preference stores diverged")
	}
	if !reflect.DeepEqual(all.Quarantined, skip.Quarantined) {
		t.Errorf("quarantine diverged: %v vs %v", all.Quarantined, skip.Quarantined)
	}
	if all.Experiments != skip.Experiments || all.Slots != skip.Slots {
		t.Errorf("schedule diverged: %d experiments in %d slots vs %d in %d",
			all.Experiments, all.Slots, skip.Experiments, skip.Slots)
	}
	if skip.Probes >= all.Probes || skip.RTTProbes >= all.RTTProbes {
		t.Errorf("skipping locked rows sent %d probes (%d in the RTT phase), probing every row %d (%d)",
			skip.Probes, skip.RTTProbes, all.Probes, all.RTTProbes)
	}
	t.Logf("probes: %d → %d, RTT phase %d → %d; quarantined %v",
		all.Probes, skip.Probes, all.RTTProbes, skip.RTTProbes, skip.Quarantined)
}

// TestChaosPluralityCounterMatchesTrace: PluralityExperiments counts exactly
// the experiments whose fault log says they settled rows on plurality, and
// QuorumRetries is non-zero whenever one did — a plurality needs every
// attempt spent. The harsh scenario makes some experiments run out of
// attempts even at test scale.
func TestChaosPluralityCounterMatchesTrace(t *testing.T) {
	harsh, err := fault.Scenario("harsh", 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Faults = harsh
	d := New(newTB(t), cfg)
	if _, err := d.MeasureRTTs(chaosSites); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ProviderPrefs(d.Representatives()); err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, l := range d.FaultLog() {
		if strings.HasSuffix(l, "accepted per-row plurality") {
			lines++
		}
	}
	if lines == 0 {
		t.Fatal("no experiment settled by plurality; the test exercises nothing")
	}
	if got := d.PluralityExperiments(); got != uint64(lines) {
		t.Errorf("PluralityExperiments() = %d, fault log has %d plurality lines", got, lines)
	}
	if d.QuorumRetries() == 0 {
		t.Error("experiments settled by plurality without a single quorum retry")
	}
	t.Logf("%d experiments, %d quorum retries, %d settled by plurality", d.Experiments, d.QuorumRetries(), lines)
}

// TestChaosSameSeedSameFailureTrace pins injection determinism: the same
// fault seed must reproduce both the campaign outputs and the failure trace
// byte for byte.
func TestChaosSameSeedSameFailureTrace(t *testing.T) {
	a := runChaosCampaign(t, chaosFaults(7))
	b := runChaosCampaign(t, chaosFaults(7))
	if !reflect.DeepEqual(a.rtt, b.rtt) || !reflect.DeepEqual(a.providers, b.providers) ||
		!reflect.DeepEqual(a.siteRels, b.siteRels) {
		t.Error("same fault seed produced different campaign outputs")
	}
	if !reflect.DeepEqual(a.quarantined, b.quarantined) {
		t.Errorf("quarantine sets differ: %v vs %v", a.quarantined, b.quarantined)
	}
	if !reflect.DeepEqual(a.faultLog, b.faultLog) {
		t.Errorf("failure traces differ across identical runs (%d vs %d lines)",
			len(a.faultLog), len(b.faultLog))
	}
}

// TestFaultsDisabledIsByteIdentical pins the zero-cost-when-off contract: a
// non-nil fault config with all rates zero must leave the campaign
// byte-identical to a nil one — same results, same probe accounting, no
// quorum, no log.
func TestFaultsDisabledIsByteIdentical(t *testing.T) {
	tb := newTB(t)
	cfg := DefaultConfig()
	d1 := New(tb, cfg)
	cfg2 := cfg
	cfg2.Faults = &fault.Config{Seed: 99} // all rates zero: disabled
	d2 := New(tb, cfg2)

	t1, err := d1.MeasureRTTs([]int{1, 6})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := d2.MeasureRTTs([]int{1, 6})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(t1.Export(), t2.Export()) {
		t.Error("zero-rate fault config changed measurement results")
	}
	if d1.ProbesSent != d2.ProbesSent {
		t.Errorf("probe accounting diverged: %d vs %d", d1.ProbesSent, d2.ProbesSent)
	}
	if len(d2.FaultLog()) != 0 || d2.Quarantined() != nil {
		t.Error("disabled faults still produced fault-log or quarantine state")
	}
}

// TestChaosConfigurationRTTsReachRowQuorum pins the ad-hoc measurement path
// under faults: Measure with RTTs (System.MeasureConfigurations) votes
// row by row like every campaign experiment, so under the paper fault
// scenario every row of a deployed 8-site configuration reaches quorum and
// the catchments are the fault-free ones. While ConfigResult was voted on as
// one value, no two attempts ever agreed across all targets and the
// experiment fell to a whole-result plurality — one faulted attempt, accepted
// as is, a catchment and one RTT in six off.
//
// RTT cells are held to a looser bound than catchments on purpose. An RTT is
// the median of seven samples; an attempt that loses one sample at or above
// the median reports the next sample down — the same wrong value every time —
// so at the paper scenario's 1% loss two such attempts out-vote the clean
// value on about 3% of rows (here 10 of 340). That is a property of 2-of-5
// voting over medians, shared with the campaign's singleton experiments, not
// of how rows are voted.
func TestChaosConfigurationRTTsReachRowQuorum(t *testing.T) {
	sites := rand.New(rand.NewSource(8)).Perm(15)[:8]
	for i := range sites {
		sites[i]++ // site IDs are 1-based
	}
	measure := func(faults *fault.Config) (ConfigResult, []string) {
		cfg := DefaultConfig()
		cfg.Faults = faults
		d := New(newTB(t), cfg)
		res := d.Measure([]Deployment{{Sites: sites}}, true)[0]
		if err := d.Err(); err != nil {
			t.Fatal(err)
		}
		return res, d.FaultLog()
	}
	paper, err := fault.Scenario("paper", 1)
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := measure(nil)
	faulted, log := measure(paper)

	if len(log) == 0 {
		t.Fatal("faulted measurement produced no fault log; chaos layer not exercised")
	}
	for _, line := range log {
		if strings.Contains(line, "plurality") {
			t.Errorf("measurement not settled by quorum: %s", line)
		}
	}
	rows := len(clean.Catchments)
	if rows == 0 || len(faulted.Catchments) != rows || len(faulted.RTTs) != len(clean.RTTs) {
		t.Fatalf("clean run measured %d catchments and %d RTTs, faulted %d and %d",
			rows, len(clean.RTTs), len(faulted.Catchments), len(faulted.RTTs))
	}
	sameSite, sameRTT := 0, 0
	for c, site := range clean.Catchments {
		if faulted.Catchments[c] == site {
			sameSite++
		}
		if rtt, ok := faulted.RTTs[c]; ok && rtt == clean.RTTs[c] {
			sameRTT++
		}
	}
	if float64(sameSite) < 0.999*float64(rows) {
		t.Errorf("only %d of %d catchments match the fault-free measurement", sameSite, rows)
	}
	if float64(sameRTT) < 0.95*float64(rows) {
		t.Errorf("only %d of %d RTTs match the fault-free measurement", sameRTT, rows)
	}
}
