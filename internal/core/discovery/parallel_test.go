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

// TestBatchedDriversMatchSingleCalls pins Measure's batches to their serial
// single-call equivalents: two fresh campaigns with the same seeds, one
// measuring a mix of deployments with and without peering links one call
// each, one measuring them as a single batch, must agree on results, counters
// and nonce consumption — with RTTs and without.
func TestBatchedDriversMatchSingleCalls(t *testing.T) {
	peer := newTB(t).Site(4).PeerLinks[0]
	deps := []Deployment{
		{Sites: []int{1, 6}},
		{Sites: []int{6, 1}},
		{Sites: []int{1, 3, 5}, Peers: []topology.LinkID{peer}},
		{Sites: []int{3, 5}},
	}
	for _, withRTT := range []bool{false, true} {
		one := New(newTB(t), DefaultConfig())
		var singles []ConfigResult
		for _, dep := range deps {
			singles = append(singles, one.Measure([]Deployment{dep}, withRTT)...)
		}

		two := New(newTB(t), DefaultConfig())
		batch := two.Measure(deps, withRTT)

		if !reflect.DeepEqual(singles, batch) {
			t.Fatalf("withRTT=%v: a %d-deployment Measure batch diverged from one call each", withRTT, len(deps))
		}
		if one.Experiments != two.Experiments || one.ProbesSent != two.ProbesSent || one.nonce != two.nonce {
			t.Fatalf("withRTT=%v: counters diverged: single exps=%d probes=%d nonce=%d, batch exps=%d probes=%d nonce=%d",
				withRTT, one.Experiments, one.ProbesSent, one.nonce, two.Experiments, two.ProbesSent, two.nonce)
		}
		if (batch[0].RTTs != nil) != withRTT {
			t.Errorf("withRTT=%v: RTTs present = %v", withRTT, batch[0].RTTs != nil)
		}
		viaPeer := 0
		for _, link := range batch[2].Links {
			if link == peer {
				viaPeer++
			}
		}
		if viaPeer == 0 {
			t.Errorf("withRTT=%v: no client entered over the enabled peering link", withRTT)
		}
	}
}
