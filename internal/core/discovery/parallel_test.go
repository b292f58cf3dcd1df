package discovery

import (
	"reflect"
	"testing"

	"anyopt/internal/core/prefs"
	"anyopt/internal/fault"
	"anyopt/internal/topology"
)

// campaignResult captures everything a full discovery campaign produces, in
// comparable form.
type campaignResult struct {
	RTTs        map[int]map[prefs.Client]int64
	Provider    []prefs.DumpedRelation
	Sites       map[topology.ASN][]prefs.DumpedRelation
	Naive       []prefs.DumpedRelation
	Quarantined map[int]string
	Experiments int
	Slots       int
	Probes      uint64
	// RTTProbes is the share of Probes the parallel-prefix RTT phase sent.
	RTTProbes uint64
}

// runCampaign executes the full measurement campaign — singleton RTTs
// (parallel-prefix), order-controlled provider preferences, site-level
// preferences for every multi-site provider, and the naive baseline — with
// the given worker count and fault configuration (nil = fault-free).
// probeLocked turns off the quorum's skip of locked rows.
func runCampaign(t *testing.T, workers int, faults *fault.Config, probeLocked bool) campaignResult {
	t.Helper()
	tb := newTB(t)
	cfg := DefaultConfig()
	cfg.Workers = workers
	cfg.Faults = faults
	d := New(tb, cfg)
	d.probeLocked = probeLocked

	allSites := make([]int, len(tb.Sites))
	for i, s := range tb.Sites {
		allSites[i] = s.ID
	}
	tbl, err := d.MeasureRTTsParallel(allSites)
	if err != nil {
		t.Fatal(err)
	}
	rttProbes := d.ProbesSent
	reps := d.Representatives()
	provider, err := d.ProviderPrefs(reps)
	if err != nil {
		t.Fatal(err)
	}
	sites := make(map[topology.ASN][]prefs.DumpedRelation)
	for _, p := range tb.TransitProviders() {
		if len(tb.SitesOfTransit(p)) < 2 {
			continue
		}
		st, err := d.SitePrefs(p)
		if err != nil {
			t.Fatal(err)
		}
		sites[p] = st.Dump()
	}
	naive, err := d.ProviderPrefsNaive(reps)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("campaign infrastructure error: %v", err)
	}
	return campaignResult{
		RTTs:        tbl.Export(),
		Provider:    provider.Dump(),
		Sites:       sites,
		Naive:       naive.Dump(),
		Quarantined: d.Quarantined(),
		Experiments: d.Experiments,
		Slots:       d.Slots,
		Probes:      d.ProbesSent,
		RTTProbes:   rttProbes,
	}
}

// TestParallelCampaignDeterminism is the executor's core guarantee: a full
// discovery campaign must produce byte-identical preference stores, RTT
// tables, and counters no matter how many workers run it. Nonces are
// assigned at submission time, so scheduling cannot leak into results.
func TestParallelCampaignDeterminism(t *testing.T) {
	serial := runCampaign(t, 1, nil, false)
	if serial.Experiments == 0 || serial.Probes == 0 {
		t.Fatalf("campaign ran no experiments (exps=%d probes=%d)", serial.Experiments, serial.Probes)
	}
	for _, workers := range []int{2, 4} {
		parallel := runCampaign(t, workers, nil, false)
		if !reflect.DeepEqual(serial, parallel) {
			if !reflect.DeepEqual(serial.RTTs, parallel.RTTs) {
				t.Errorf("workers=%d: RTT tables differ", workers)
			}
			if !reflect.DeepEqual(serial.Provider, parallel.Provider) {
				t.Errorf("workers=%d: provider preference stores differ", workers)
			}
			if !reflect.DeepEqual(serial.Sites, parallel.Sites) {
				t.Errorf("workers=%d: site preference stores differ", workers)
			}
			if !reflect.DeepEqual(serial.Naive, parallel.Naive) {
				t.Errorf("workers=%d: naive preference stores differ", workers)
			}
			if serial.Experiments != parallel.Experiments || serial.Slots != parallel.Slots || serial.Probes != parallel.Probes {
				t.Errorf("workers=%d: counters differ: serial exps=%d slots=%d probes=%d, parallel exps=%d slots=%d probes=%d",
					workers, serial.Experiments, serial.Slots, serial.Probes,
					parallel.Experiments, parallel.Slots, parallel.Probes)
			}
			t.Fatalf("workers=%d: parallel campaign diverged from serial", workers)
		}
	}
}

// TestBatchedDriversMatchSingleCalls pins the batch APIs to their serial
// single-call equivalents: two fresh campaigns with the same seeds, one
// running two one-config batches, one running a single two-config batch,
// must agree on results and nonce consumption.
func TestBatchedDriversMatchSingleCalls(t *testing.T) {
	cfgA := []int{1, 6}
	cfgB := []int{6, 1}

	one := New(newTB(t), DefaultConfig())
	r1 := one.RunConfigurations([][]int{cfgA})[0]
	r2 := one.RunConfigurations([][]int{cfgB})[0]

	two := New(newTB(t), DefaultConfig())
	batch := two.RunConfigurations([][]int{cfgA, cfgB})

	if !reflect.DeepEqual(r1, batch[0]) || !reflect.DeepEqual(r2, batch[1]) {
		t.Fatal("a two-config RunConfigurations batch diverged from two one-config batches")
	}
	if one.Experiments != two.Experiments || one.ProbesSent != two.ProbesSent {
		t.Fatalf("counters diverged: single exps=%d probes=%d, batch exps=%d probes=%d",
			one.Experiments, one.ProbesSent, two.Experiments, two.ProbesSent)
	}
}
