package discovery

import (
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"anyopt/internal/core/prefs"
	"anyopt/internal/fault"
	"anyopt/internal/topology"
)

// pooledCampaign captures everything simulator-session reuse could corrupt:
// measurement outputs, schedule accounting, and the campaign fault trace.
type pooledCampaign struct {
	RTTs        map[int]map[prefs.Client]int64
	Provider    []prefs.DumpedRelation
	Sites       map[topology.ASN][]prefs.DumpedRelation
	Quarantined map[int]string
	FaultLog    []string
	Experiments int
	Slots       int
	Probes      uint64
}

// runPooledCampaign executes the mini-campaign — singleton RTTs for every
// representative-bearing site, the provider preference matrix, and site
// preferences for every multi-site provider — with the given worker count,
// fault configuration (nil = fault-free), and simulator-reuse mode.
func runPooledCampaign(t *testing.T, workers int, fresh bool, faults *fault.Config) pooledCampaign {
	t.Helper()
	tb := newTB(t)
	cfg := DefaultConfig()
	cfg.Workers = workers
	cfg.Noisy = false
	cfg.Faults = faults
	d := New(tb, cfg)
	d.freshSims = fresh

	tbl, err := d.MeasureRTTs(chaosSites)
	if err != nil {
		t.Fatal(err)
	}
	provider, err := d.ProviderPrefs(d.Representatives())
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
	if err := d.Err(); err != nil {
		t.Fatalf("campaign infrastructure error: %v", err)
	}
	return pooledCampaign{
		RTTs:        tbl.Export(),
		Provider:    provider.Dump(),
		Sites:       sites,
		Quarantined: d.Quarantined(),
		FaultLog:    d.FaultLog(),
		Experiments: d.Experiments,
		Slots:       d.Slots,
		Probes:      d.ProbesSent,
	}
}

// paperFaults builds the paper fault scenario used by the differential reuse
// tests — the same mix `-faults paper` selects on the CLI.
func paperFaults(t *testing.T, seed int64) *fault.Config {
	t.Helper()
	cfg, err := fault.Scenario("paper", seed)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// diffPooledCampaign reports field-level differences so a reuse bug names the
// output it corrupted instead of a bare DeepEqual failure.
func diffPooledCampaign(t *testing.T, label string, fresh, pooled pooledCampaign) {
	t.Helper()
	if reflect.DeepEqual(fresh, pooled) {
		return
	}
	if !reflect.DeepEqual(fresh.RTTs, pooled.RTTs) {
		t.Errorf("%s: RTT tables diverged", label)
	}
	if !reflect.DeepEqual(fresh.Provider, pooled.Provider) {
		t.Errorf("%s: provider preference matrices diverged", label)
	}
	if !reflect.DeepEqual(fresh.Sites, pooled.Sites) {
		t.Errorf("%s: site preference stores diverged", label)
	}
	if !reflect.DeepEqual(fresh.Quarantined, pooled.Quarantined) {
		t.Errorf("%s: quarantine sets diverged: %v vs %v", label, fresh.Quarantined, pooled.Quarantined)
	}
	if !reflect.DeepEqual(fresh.FaultLog, pooled.FaultLog) {
		t.Errorf("%s: fault traces diverged (%d vs %d lines)", label, len(fresh.FaultLog), len(pooled.FaultLog))
	}
	if fresh.Experiments != pooled.Experiments || fresh.Slots != pooled.Slots || fresh.Probes != pooled.Probes {
		t.Errorf("%s: counters diverged: fresh exps=%d slots=%d probes=%d, pooled exps=%d slots=%d probes=%d",
			label, fresh.Experiments, fresh.Slots, fresh.Probes,
			pooled.Experiments, pooled.Slots, pooled.Probes)
	}
	t.Fatalf("%s: pooled campaign diverged from fresh-Sim campaign", label)
}

// TestPooledCampaignMatchesFreshSims is the differential acceptance test for
// simulator session reuse: a campaign whose experiments recycle converged
// sims through Sim.Reset must produce byte-identical preference matrices,
// RTT tables, counters, and fault traces to one that constructs a fresh
// bgp.Sim per experiment — fault-free and under the paper fault scenario, at
// one worker and at GOMAXPROCS. Runs under -race via `make race`.
func TestPooledCampaignMatchesFreshSims(t *testing.T) {
	for _, tc := range []struct {
		name   string
		faults func() *fault.Config
	}{
		{"fault-free", func() *fault.Config { return nil }},
		{"faults-paper", func() *fault.Config { return paperFaults(t, 7) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
				fresh := runPooledCampaign(t, workers, true, tc.faults())
				if fresh.Experiments == 0 || fresh.Probes == 0 {
					t.Fatalf("campaign ran no experiments (exps=%d probes=%d)", fresh.Experiments, fresh.Probes)
				}
				pooled := runPooledCampaign(t, workers, false, tc.faults())
				diffPooledCampaign(t, tc.name+"/workers="+strconv.Itoa(workers), fresh, pooled)
			}
		})
	}
}

// TestSimReuseIgnoresTheCollector pins what makes a campaign's allocation a
// function of its worker count: one worker constructs exactly one simulator
// however often the collector runs between batches (a sync.Pool is emptied
// by two collections), and DropSims is the only thing that lets it go.
func TestSimReuseIgnoresTheCollector(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.Noisy = false
	d := New(newTB(t), cfg)
	batch := []Deployment{{Sites: []int{1, 4}}, {Sites: []int{4, 1}}}
	for i := 0; i < 3; i++ {
		d.Measure(batch, false)
		runtime.GC()
		runtime.GC()
	}
	if hits, misses := d.SimPoolStats(); hits != 5 || misses != 1 {
		t.Errorf("six experiments at one worker: %d hits, %d misses, want 5 and 1", hits, misses)
	}
	d.DropSims()
	d.Measure(batch, false)
	if hits, misses := d.SimPoolStats(); hits != 6 || misses != 2 {
		t.Errorf("after DropSims and two more experiments: %d hits, %d misses, want 6 and 2", hits, misses)
	}
}
