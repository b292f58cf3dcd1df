package discovery

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"anyopt/internal/core/prefs"
	"anyopt/internal/testbed"
	"anyopt/internal/topology"
)

func newTB(t testing.TB) *testbed.Testbed {
	t.Helper()
	topo, err := topology.Generate(topology.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	tb, err := testbed.New(topo, testbed.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestMeasureRTTs(t *testing.T) {
	tb := newTB(t)
	d := New(tb, DefaultConfig())
	tbl, err := d.MeasureRTTs([]int{1, 6})
	if err != nil {
		t.Fatal(err)
	}
	if d.Experiments != 2 {
		t.Errorf("experiments = %d, want 2", d.Experiments)
	}
	total := len(tb.Topo.Targets)
	for _, site := range []int{1, 6} {
		n := tbl.Clients(site)
		if n < total*9/10 {
			t.Errorf("site %d: only %d/%d clients measured", site, n, total)
		}
		if m := tbl.MeanUnicast(site); m <= 0 || m > time.Second {
			t.Errorf("site %d: mean unicast %v implausible", site, m)
		}
	}
	if _, err := d.MeasureRTTs([]int{99}); err == nil {
		t.Error("unknown site accepted")
	}
	if _, ok := tbl.RTT(3, prefs.Client(tb.Topo.Targets[0].AS)); ok {
		t.Error("RTT for unmeasured site returned")
	}
}

func TestRTTsGeographicallySane(t *testing.T) {
	tb := newTB(t)
	cfg := DefaultConfig()
	cfg.Noisy = false
	d := New(tb, cfg)
	// Tokyo site (6) vs Amsterdam site (2): European clients should be much
	// closer to Amsterdam on average.
	tbl, err := d.MeasureRTTs([]int{2, 6})
	if err != nil {
		t.Fatal(err)
	}
	euCloserToAMS, euTotal := 0, 0
	for _, tg := range tb.Topo.Targets {
		as := tb.Topo.AS(tg.AS)
		if as.Coord.Lat < 35 || as.Coord.Lat > 70 || as.Coord.Lon < -10 || as.Coord.Lon > 30 {
			continue // not Europe-ish
		}
		c := prefs.Client(tg.AS)
		rttAMS, ok1 := tbl.RTT(2, c)
		rttTYO, ok2 := tbl.RTT(6, c)
		if !ok1 || !ok2 {
			continue
		}
		euTotal++
		if rttAMS < rttTYO {
			euCloserToAMS++
		}
	}
	if euTotal < 10 {
		t.Skip("too few European targets")
	}
	if frac := float64(euCloserToAMS) / float64(euTotal); frac < 0.9 {
		t.Errorf("only %.0f%% of European clients closer to Amsterdam than Tokyo", frac*100)
	}
}

func TestProviderPrefsOrderedVsNaive(t *testing.T) {
	tb := newTB(t)
	d := New(tb, DefaultConfig())
	reps := d.Representatives()
	if len(reps) != 6 {
		t.Fatalf("representatives = %d, want 6", len(reps))
	}

	ordered, err := d.ProviderPrefs(reps)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := d.ProviderPrefsNaive(reps)
	if err != nil {
		t.Fatal(err)
	}

	items := ordered.Items()
	bestOrder, fracOrdered := ordered.BestAnnouncementOrder(6)
	fracNaive := naive.FracWithTotalOrder(naive.Items())
	t.Logf("total-order fraction: ordered=%.3f naive=%.3f (best order %v)", fracOrdered, fracNaive, bestOrder)

	if fracOrdered < 0.75 {
		t.Errorf("ordered discovery: only %.1f%% of clients have a total order", fracOrdered*100)
	}
	if fracNaive >= fracOrdered {
		t.Errorf("naive (%.3f) should have fewer total orders than ordered (%.3f) — Figure 4b's contrast", fracNaive, fracOrdered)
	}
	if len(items) != 6 {
		t.Errorf("provider items = %d", len(items))
	}
	// 15 provider pairs, two ordered experiments each, plus 15 naive.
	if d.Experiments != 30+15 {
		t.Errorf("experiments = %d, want 45", d.Experiments)
	}
}

func TestSitePrefs(t *testing.T) {
	tb := newTB(t)
	d := New(tb, DefaultConfig())
	// NTT hosts 4 sites (6, 7, 9, 11) → 6 pairwise experiments.
	var ntt topology.ASN
	for _, a := range tb.Topo.Tier1s() {
		if a.Name == "NTT" {
			ntt = a.ASN
		}
	}
	store, err := d.SitePrefs(ntt)
	if err != nil {
		t.Fatal(err)
	}
	if d.Experiments != 6 {
		t.Errorf("experiments = %d, want 6", d.Experiments)
	}
	items := store.Items()
	if len(items) != 4 {
		t.Fatalf("NTT site items = %v", items)
	}
	// Intra-AS prefs are IGP-driven and strict: nearly all clients should
	// have a total order.
	if frac := store.FracWithTotalOrder(items); frac < 0.9 {
		t.Errorf("intra-AS total-order fraction %.2f, want ≥0.9 (hot potato is deterministic)", frac)
	}
	if _, err := d.SitePrefs(topology.ASN(999999)); err == nil {
		t.Error("unknown provider accepted")
	}
}

func TestSitePrefsOrderInvariant(t *testing.T) {
	// §5.1: announcement order has no effect on intra-AS catchments. Two
	// independent simultaneous experiments (different jitter nonces) must
	// agree.
	tb := newTB(t)
	d := New(tb, DefaultConfig())
	var telia topology.ASN
	for _, a := range tb.Topo.Tier1s() {
		if a.Name == "Telia" {
			telia = a.ASN
		}
	}
	s1, err := d.SitePrefs(telia)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := d.SitePrefs(telia)
	if err != nil {
		t.Fatal(err)
	}
	items := s1.Items()
	agree, total := 0, 0
	for _, c := range s1.Clients() {
		cp2 := s2.Get(c)
		if cp2 == nil {
			continue
		}
		for a := 0; a < len(items); a++ {
			for b := a + 1; b < len(items); b++ {
				r1, w1 := s1.Get(c).Relation(items[a], items[b])
				r2, w2 := cp2.Relation(items[a], items[b])
				if r1 == prefs.RelUnknown || r2 == prefs.RelUnknown {
					continue
				}
				total++
				if r1 == r2 && w1 == w2 {
					agree++
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no comparable pairs")
	}
	if frac := float64(agree) / float64(total); frac < 0.94 {
		t.Errorf("intra-AS preferences unstable across runs: %.1f%% agreement", frac*100)
	}
}

func TestRepresentativeStability(t *testing.T) {
	// §5.1: varying the representative site changes few clients' provider
	// preferences (94.2% stable in the paper).
	tb := newTB(t)
	d := New(tb, DefaultConfig())
	repsA := d.Representatives()
	// Alternative representatives: highest site ID per provider.
	repsB := map[topology.ASN]int{}
	for _, s := range tb.Sites {
		if cur, ok := repsB[s.Transit]; !ok || s.ID > cur {
			repsB[s.Transit] = s.ID
		}
	}
	storeA, err := d.ProviderPrefs(repsA)
	if err != nil {
		t.Fatal(err)
	}
	storeB, err := d.ProviderPrefs(repsB)
	if err != nil {
		t.Fatal(err)
	}
	items := storeA.Items()
	same, total := 0, 0
	for _, c := range storeA.Clients() {
		cpB := storeB.Get(c)
		if cpB == nil {
			continue
		}
		for a := 0; a < len(items); a++ {
			for b := a + 1; b < len(items); b++ {
				rA, wA := storeA.Get(c).Relation(items[a], items[b])
				rB, wB := cpB.Relation(items[a], items[b])
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
	frac := float64(same) / float64(total)
	t.Logf("representative stability: %.1f%% of pairwise preferences unchanged (paper: 94.2%%)", frac*100)
	if frac < 0.80 {
		t.Errorf("representative stability %.1f%% too low", frac*100)
	}
}

func TestMeasureWithPeers(t *testing.T) {
	tb := newTB(t)
	d := New(tb, DefaultConfig())
	base := []int{1, 3, 5}
	peer := tb.Site(4).PeerLinks[0]
	m := d.Measure([]Deployment{{Sites: base, Peers: []topology.LinkID{peer}}}, true)[0]
	if len(m.Catchments) < len(tb.Topo.Targets)*8/10 {
		t.Fatalf("only %d catchments", len(m.Catchments))
	}
	if len(m.Links) != len(m.Catchments) {
		t.Fatalf("%d links for %d catchments", len(m.Links), len(m.Catchments))
	}
	viaPeer := 0
	for c, link := range m.Links {
		if link == peer {
			viaPeer++
			if site := m.Catchments[c]; site != 4 {
				t.Errorf("peer link attributed to site %d, want 4", site)
			}
		}
	}
	t.Logf("peer catchment: %d clients", viaPeer)
	// The peer AS itself is a target (transit or stub): it must use its own
	// peering.
	peerAS := tb.Topo.Link(peer).Other(tb.Origin)
	if link, ok := m.Links[prefs.Client(peerAS)]; ok && link != peer {
		t.Errorf("peer AS entered via link %d, want its own peering %d", link, peer)
	}
}

func TestScheduleAccountingMatchesPaper(t *testing.T) {
	// §4.5: 500 sites, 20 transits, 4 prefixes, 2 h spacing →
	// 250 h singleton (~10 days) + 190 h pairwise (~8 days).
	s := PlanTransitOnly(500, 20, 4, true)
	if s.SingletonExperiments != 500 {
		t.Errorf("singleton experiments = %d", s.SingletonExperiments)
	}
	if s.PairwiseExperiments != 380 {
		t.Errorf("pairwise experiments = %d, want 380", s.PairwiseExperiments)
	}
	if got := s.SingletonHours(); got != 250 {
		t.Errorf("singleton hours = %v, want 250", got)
	}
	if got := s.PairwiseHours(); got != 190 {
		t.Errorf("pairwise hours = %v, want 190", got)
	}
	if d := s.TotalDays(); math.Abs(d-440.0/24) > 1e-9 {
		t.Errorf("total days = %v", d)
	}
	// Naive flat pairwise for the same network would need O(sites²)
	// experiments — the reduction §4.3 buys.
	naivePairs := 500 * 499 / 2
	if naivePairs <= s.PairwiseExperiments*100 {
		t.Errorf("two-level reduction factor unexpectedly small")
	}
	// Order-oblivious discovery halves pairwise runs.
	if got := PlanTransitOnly(500, 20, 4, false).PairwiseExperiments; got != 190 {
		t.Errorf("order-oblivious pairwise = %d, want 190", got)
	}
	// Zero parallel prefixes clamps to 1.
	if got := PlanTransitOnly(10, 2, 0, false); got.SingletonHours() != 20 {
		t.Errorf("parallel clamp broken: %v", got.SingletonHours())
	}
}

func TestMeasureDeterministicPerNonce(t *testing.T) {
	tb := newTB(t)
	cfg := DefaultConfig()
	cfg.Noisy = false
	d1 := New(tb, cfg)
	d2 := New(tb, cfg)
	dep := []Deployment{{Sites: []int{1, 4}}}
	a := d1.Measure(dep, false)[0].Catchments
	b := d2.Measure(dep, false)[0].Catchments
	if len(a) != len(b) {
		t.Fatalf("catchment sizes differ: %d vs %d", len(a), len(b))
	}
	for c, s := range a {
		if b[c] != s {
			t.Fatalf("client %d: %d vs %d", c, s, b[c])
		}
	}
}

func TestNaiveSitePrefsAcrossProviders(t *testing.T) {
	tb := newTB(t)
	d := New(tb, DefaultConfig())
	sites := []int{1, 3, 4, 5}
	store, err := d.NaiveSitePrefs(sites)
	if err != nil {
		t.Fatal(err)
	}
	if d.Experiments != 6 {
		t.Errorf("experiments = %d, want 6 pairs", d.Experiments)
	}
	if got := len(store.Items()); got != 4 {
		t.Errorf("items = %d", got)
	}
	_ = rand.Int
}

func TestMeasureRTTsParallelMatchesSerial(t *testing.T) {
	tb := newTB(t)
	cfg := DefaultConfig()
	cfg.Noisy = false
	sites := []int{1, 3, 4, 5, 6, 10}

	serial, err := New(tb, cfg).MeasureRTTs(sites)
	if err != nil {
		t.Fatal(err)
	}
	dPar := New(tb, cfg)
	parallel, err := dPar.MeasureRTTsParallel(sites)
	if err != nil {
		t.Fatal(err)
	}
	// Six sites over four prefixes = two slots instead of six.
	if dPar.Slots != 2 {
		t.Errorf("slots = %d, want 2", dPar.Slots)
	}
	if dPar.Experiments != len(sites) {
		t.Errorf("experiments = %d, want %d", dPar.Experiments, len(sites))
	}
	for _, site := range sites {
		if parallel.Clients(site) < serial.Clients(site)*95/100 {
			t.Errorf("site %d: parallel measured %d clients vs serial %d",
				site, parallel.Clients(site), serial.Clients(site))
		}
		close, total := 0, 0
		for _, tg := range tb.Topo.Targets {
			c := prefs.Client(tg.AS)
			a, ok1 := serial.RTT(site, c)
			b, ok2 := parallel.RTT(site, c)
			if !ok1 || !ok2 {
				continue
			}
			total++
			diff := float64(a-b) / float64(a)
			if diff < 0 {
				diff = -diff
			}
			if diff < 0.10 {
				close++
			}
		}
		if total == 0 {
			t.Fatalf("site %d: no comparable clients", site)
		}
		// Serial and parallel runs race independently (different jitter
		// nonces), so a minority of clients legitimately take different
		// paths to the site.
		if frac := float64(close) / float64(total); frac < 0.80 {
			t.Errorf("site %d: only %.0f%% of RTTs within 10%% of serial", site, frac*100)
		}
		sm := serial.MeanUnicast(site)
		pm := parallel.MeanUnicast(site)
		rel := float64(sm-pm) / float64(sm)
		if rel < 0 {
			rel = -rel
		}
		if rel > 0.12 {
			t.Errorf("site %d: mean unicast differs %.1f%% between serial and parallel", site, rel*100)
		}
	}
}

func TestMeasureRTTsParallelErrors(t *testing.T) {
	tb := newTB(t)
	d := New(tb, DefaultConfig())
	if _, err := d.MeasureRTTsParallel([]int{99}); err == nil {
		t.Error("unknown site accepted")
	}
}
