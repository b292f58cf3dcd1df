package anyopt_test

// The solver-selection policy, held where it used to fork: a 24-site testbed
// is past exact enumeration (2^24 subsets), so every way of asking — the
// facade with Exclude/Restarts/Seed, the quickstart form, the HTTP endpoint —
// must reach the anytime solver, with every option honoured.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"anyopt"
	"anyopt/internal/api"
	"anyopt/internal/core/discovery"
	"anyopt/internal/testbed"
	"anyopt/internal/topology"
)

// twentyFourSiteSystem is the examples/dnscloud plan at two sites per
// provider, discovered.
func twentyFourSiteSystem(t *testing.T) *anyopt.System {
	t.Helper()
	params := topology.TestParams()
	params.NumTier1, params.NumTransit, params.NumStub, params.Seed = 12, 60, 500, 11
	topo, err := topology.Generate(params)
	if err != nil {
		t.Fatal(err)
	}
	var sites []testbed.SiteSpec
	for _, t1 := range topo.Tier1s() {
		for p := 0; p < 2; p++ {
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
	if n := len(sys.TB.Sites); n != 24 {
		t.Fatalf("testbed has %d sites, want 24", n)
	}
	if err := sys.RunDiscovery(); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestOptimizePolicyPastEnumeration(t *testing.T) {
	sys := twentyFourSiteSystem(t)
	snap := sys.CurrentSnapshot()

	opts := anyopt.OptimizeOptions{K: 12, Exclude: []int{3}, Restarts: 4, Seed: 7}
	res, err := snap.OptimizeWith(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Anytime || res.Evals <= 0 {
		t.Errorf("24 sites with Exclude: anytime %v, %d evals; want the anytime solver", res.Anytime, res.Evals)
	}
	if len(res.Config) != 12 || slices.Contains(res.Config, 3) {
		t.Errorf("config %v: want 12 sites without site 3", res.Config)
	}
	again, err := snap.OptimizeWith(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Config, again.Config) || res.Evals != again.Evals {
		t.Errorf("same seed diverged: %v (%d evals) vs %v (%d evals)", res.Config, res.Evals, again.Config, again.Evals)
	}

	// The quickstart form is the same path.
	plain, err := snap.Optimize(12, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Anytime || len(plain.Config) != 12 {
		t.Errorf("Optimize(12, 0) on 24 sites: anytime %v, config %v", plain.Anytime, plain.Config)
	}

	// So is the endpoint, which has no threshold of its own.
	rec := httptest.NewRecorder()
	api.NewServer(sys).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/optimize?k=12&exclude=3", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/optimize: status %d: %s", rec.Code, rec.Body)
	}
	var body struct {
		Config []int `json:"config"`
		Evals  *int  `json:"solver_evals"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Evals == nil || *body.Evals <= 0 {
		t.Errorf("GET /v1/optimize?k=12&exclude=3 carries no solver_evals: %s", rec.Body)
	}
	if len(body.Config) != 12 || slices.Contains(body.Config, 3) {
		t.Errorf("served config %v: want 12 sites without site 3", body.Config)
	}
}
