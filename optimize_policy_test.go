package anyopt_test

// The solver-selection policy past enumeration, and the optima it proves: a
// 24- or 36-site testbed is past exact enumeration (2^24 subsets and more),
// so every way of asking — the facade with Exclude, the quickstart form, the
// HTTP endpoint — must reach the branch-and-bound and come back proven.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"anyopt"
	"anyopt/internal/api"
	"anyopt/internal/core/discovery"
	"anyopt/internal/testbed"
	"anyopt/internal/topology"
)

// dnscloudSystem is the examples/dnscloud plan at perProvider sites at each
// of its twelve tier-1 providers, discovered with the §4.3 RTT heuristic.
func dnscloudSystem(t *testing.T, perProvider int) *anyopt.System {
	t.Helper()
	params := topology.TestParams()
	params.NumTier1, params.NumTransit, params.NumStub, params.Seed = 12, 60, 500, 11
	topo, err := topology.Generate(params)
	if err != nil {
		t.Fatal(err)
	}
	var sites []testbed.SiteSpec
	for _, t1 := range topo.Tier1s() {
		for p := 0; p < perProvider; p++ {
			sites = append(sites, testbed.SiteSpec{City: t1.PoPs[p].City, Transit: t1.Name})
		}
	}
	sys, err := anyopt.New(anyopt.Options{
		Topology:        params,
		Testbed:         testbed.Options{Sites: sites, Seed: 11},
		Discovery:       discovery.DefaultConfig(),
		UseRTTHeuristic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n, want := len(sys.TB.Sites), 12*perProvider; n != want {
		t.Fatalf("testbed has %d sites, want %d", n, want)
	}
	if err := sys.RunDiscovery(); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestOptimizePolicyPastEnumeration(t *testing.T) {
	sys := dnscloudSystem(t, 2)
	snap := sys.CurrentSnapshot()

	opts := anyopt.OptimizeOptions{K: 12, Exclude: []int{3}}
	res, err := snap.OptimizeWith(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Proven || len(res.Config) != 12 || slices.Contains(res.Config, 3) {
		t.Errorf("24 sites with Exclude: config %v, proven %v; want 12 sites without site 3, proven", res.Config, res.Proven)
	}
	again, err := snap.OptimizeWith(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Config, again.Config) || res.SubsetsEvaluated != again.SubsetsEvaluated {
		t.Errorf("same question diverged: %v (%d subsets) vs %v (%d subsets)", res.Config, res.SubsetsEvaluated, again.Config, again.SubsetsEvaluated)
	}

	// The quickstart form is the same path.
	plain, err := snap.Optimize(12, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Proven || len(plain.Config) != 12 || plain.PredictedMean > res.PredictedMean {
		t.Errorf("Optimize(12, 0) on 24 sites: %v mean %v proven %v; the optimum with site 3 excluded is %v",
			plain.Config, plain.PredictedMean, plain.Proven, res.PredictedMean)
	}

	// So is the endpoint, which has no threshold of its own. Its proven key
	// is there exactly when a time budget is.
	h := api.NewServer(sys).Handler()
	for _, tc := range []struct {
		query  string
		proven bool
	}{
		{"k=12&exclude=3", false},
		{"k=12&exclude=3&time_budget_ms=60000", true},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/optimize?"+tc.query, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /v1/optimize?%s: status %d: %s", tc.query, rec.Code, rec.Body)
		}
		var body struct {
			Config []int `json:"config"`
			Proven *bool `json:"proven"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(body.Config, res.Config) || (body.Proven != nil) != tc.proven || tc.proven && !*body.Proven {
			t.Errorf("GET /v1/optimize?%s: %s; want config %v, proven key %v", tc.query, rec.Body, res.Config, tc.proven)
		}
	}
}

// TestSolveProvesDNSCloud pins the 36-site dnscloud testbed's optimum at six
// sizes, each proven by the branch-and-bound.
func TestSolveProvesDNSCloud(t *testing.T) {
	snap := dnscloudSystem(t, 3).CurrentSnapshot()
	for _, tc := range []struct {
		k    int
		mean string
	}{
		{0, "157.3612"},
		{6, "179.9056"},
		{12, "166.1569"},
		{18, "160.2911"},
		{24, "157.3612"},
		{30, "157.3612"},
	} {
		start := time.Now()
		res, err := snap.Optimize(tc.k, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("k %d: %v in %v", tc.k, res.Config, time.Since(start))
		mean := fmt.Sprintf("%.4f", float64(res.PredictedMean)/float64(time.Millisecond))
		if mean != tc.mean || !res.Proven || tc.k > 0 && len(res.Config) != tc.k {
			t.Errorf("k %d: %d sites at mean %s ms, proven %v; want %s ms, proven", tc.k, len(res.Config), mean, res.Proven, tc.mean)
		}
	}
}
