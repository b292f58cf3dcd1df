package peering

import (
	"testing"
	"time"

	"anyopt/internal/core/discovery"
	"anyopt/internal/core/predict"
	"anyopt/internal/core/prefs"
	"anyopt/internal/testbed"
	"anyopt/internal/topology"
)

func setup(t *testing.T) (*testbed.Testbed, *discovery.Discovery) {
	t.Helper()
	topo, err := topology.Generate(topology.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	tb, err := testbed.New(topo, testbed.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return tb, discovery.New(tb, discovery.DefaultConfig())
}

// subsetPeers returns the first n peer links across sites, in site order.
func subsetPeers(tb *testbed.Testbed, n int) []topology.LinkID {
	var out []topology.LinkID
	for _, s := range tb.Sites {
		for _, pl := range s.PeerLinks {
			if len(out) == n {
				return out
			}
			out = append(out, pl)
		}
	}
	return out
}

func TestOnePassCampaign(t *testing.T) {
	tb, d := setup(t)
	base := []int{1, 3, 4, 5, 6, 10} // one site per provider
	peers := subsetPeers(tb, 20)

	res := OnePass(d, base, peers)
	if res.BaselineMean <= 0 {
		t.Fatal("no baseline mean")
	}
	if len(res.Reports) != len(peers) {
		t.Fatalf("reports = %d, want %d", len(res.Reports), len(peers))
	}
	// One experiment per peer plus the baseline.
	if d.Experiments != len(peers)+1 {
		t.Errorf("experiments = %d, want %d", d.Experiments, len(peers)+1)
	}

	reach, benef := res.ReachableCount(), res.BeneficialCount()
	t.Logf("baseline mean %v; %d/%d peers reachable, %d beneficial, %d included (estimated mean %v)",
		res.BaselineMean, reach, len(peers), benef, len(res.Included), res.EstimatedMean)

	for _, rep := range res.Reports {
		if rep.SiteID < 1 || rep.SiteID > 15 {
			t.Errorf("peer %d at site %d", rep.Link, rep.SiteID)
		}
		if rep.Beneficial && rep.Delta >= 0 {
			t.Errorf("peer %d beneficial with delta %v", rep.Link, rep.Delta)
		}
		if !rep.Beneficial && rep.Delta < 0 {
			t.Errorf("peer %d not beneficial with delta %v", rep.Link, rep.Delta)
		}
		// Peer catchments should be small — Figure 7a's headline shape.
		if frac := float64(len(rep.Catchment)) / float64(len(tb.Topo.Targets)); frac > 0.5 {
			t.Errorf("peer %d catches %.0f%% of targets; implausibly large", rep.Link, frac*100)
		}
	}
	// Included peers must all be beneficial and estimated mean must not
	// exceed the baseline.
	benefSet := map[topology.LinkID]bool{}
	for _, rep := range res.Reports {
		if rep.Beneficial {
			benefSet[rep.Link] = true
		}
	}
	for _, l := range res.Included {
		if !benefSet[l] {
			t.Errorf("included peer %d is not beneficial", l)
		}
	}
	if res.EstimatedMean > res.BaselineMean {
		t.Errorf("estimated mean %v above baseline %v", res.EstimatedMean, res.BaselineMean)
	}
}

func TestOnePassDeployedImprovement(t *testing.T) {
	// Deploy base + included peers and verify the measured mean does not
	// regress (the §5.4 result: small but real improvement).
	tb, d := setup(t)
	base := []int{1, 3, 4, 5, 6, 10}
	peers := subsetPeers(tb, 30)
	res := OnePass(d, base, peers)
	if len(res.Included) == 0 {
		t.Skip("no beneficial peers in this draw")
	}
	m := d.Measure([]discovery.Deployment{{Sites: base, Peers: res.Included}}, true)[0]
	got, n := predict.MeasuredMeanRTT(m.RTTs)
	if n == 0 {
		t.Fatal("no measurements")
	}
	t.Logf("baseline %v → with %d beneficial peers %v", res.BaselineMean, len(res.Included), got)
	// Tolerate noise: the deployed config must not be more than 5% worse
	// than baseline, and typically improves.
	if float64(got) > float64(res.BaselineMean)*1.05 {
		t.Errorf("deployed peering config regressed: %v vs baseline %v", got, res.BaselineMean)
	}
}

func TestGreedyIncludeConservative(t *testing.T) {
	// Synthetic reports: a big beneficial peer that helps and a small one
	// that (conservatively) would hurt once the big one is in.
	res := &Result{
		BaselineMean: 100 * time.Millisecond,
		BaselineRTTs: map[prefs.Client]time.Duration{
			1: 100 * time.Millisecond,
			2: 100 * time.Millisecond,
			3: 100 * time.Millisecond,
			4: 100 * time.Millisecond,
		},
		Reports: []PeerReport{
			{
				Link: 10, Beneficial: true, Reachable: true,
				Catchment: map[prefs.Client]time.Duration{1: 10 * time.Millisecond, 2: 20 * time.Millisecond},
				Delta:     -5 * time.Millisecond,
			},
			{
				Link: 11, Beneficial: true, Reachable: true,
				// Would raise client 3 to 400ms: conservative estimate says no.
				Catchment: map[prefs.Client]time.Duration{3: 400 * time.Millisecond},
				Delta:     -time.Millisecond,
			},
		},
	}
	res.greedyInclude()
	if len(res.Included) != 1 || res.Included[0] != 10 {
		t.Fatalf("included = %v, want [10]", res.Included)
	}
	want := (10 + 20 + 100 + 100) * time.Millisecond / 4
	if res.EstimatedMean != want {
		t.Errorf("estimated mean %v, want %v", res.EstimatedMean, want)
	}
}

func TestGreedyIncludeNoBeneficial(t *testing.T) {
	res := &Result{
		BaselineMean: 50 * time.Millisecond,
		BaselineRTTs: map[prefs.Client]time.Duration{1: 50 * time.Millisecond},
		Reports: []PeerReport{
			{Link: 9, Beneficial: false, Delta: 3 * time.Millisecond},
		},
	}
	res.greedyInclude()
	if len(res.Included) != 0 {
		t.Fatalf("included = %v, want none", res.Included)
	}
	if res.EstimatedMean != res.BaselineMean {
		t.Errorf("estimated mean %v, want baseline", res.EstimatedMean)
	}
}
