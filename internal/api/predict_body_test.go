package api

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"anyopt"
	"anyopt/internal/core/prefs"
)

// pinnedPredictConfigs are the configurations TestServedBytesPinned serves.
var pinnedPredictConfigs = []string{"1,4,6", "2,3,5,7,8,9,10,11,12,13,14,15"}

// oraclePrediction answers cfg one client at a time, through
// Predictor.Catchment and RTTTable.RTT: what /v1/predict must say.
func oraclePrediction(snap *anyopt.Snapshot, cfg anyopt.Config) (perSite map[string]int, mean time.Duration, n int) {
	perSite = map[string]int{}
	var sum time.Duration
	for _, c := range snap.Pred.Providers.Clients() {
		site, ok := snap.Pred.Catchment(c, cfg)
		if !ok {
			continue
		}
		perSite[strconv.Itoa(site)]++
		if rtt, ok := snap.RTT.RTT(site, c); ok {
			sum += rtt
			n++
		}
	}
	if n > 0 {
		mean = sum / time.Duration(n)
	}
	return perSite, mean, n
}

// staleSystem installs the shared campaign on a fresh system and republishes
// it with two rows marked stale, the way churn application does.
func staleSystem(t *testing.T) *anyopt.System {
	t.Helper()
	cur := discoveredSystem(t).CurrentSnapshot()
	sys, err := anyopt.New(anyopt.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	clients := cur.Pred.Providers.Clients()
	stale := map[prefs.Client]uint64{clients[len(clients)/2]: 1, clients[3]: 1}
	sys.PatchCampaign(cur.Pred, cur.RTT, cur.AnnOrder, cur.Experiments, cur.Quarantined, stale)
	return sys
}

// TestPredictBodyMatchesMapEncoding holds the typed /v1/predict body to the
// bytes json.NewEncoder gave the map[string]any it replaced, newline
// included, with the values taken from the per-client oracle — on the pinned
// configurations, and on a snapshot whose stale rows add the two optional
// keys.
func TestPredictBodyMatchesMapEncoding(t *testing.T) {
	for name, sys := range map[string]*anyopt.System{"fresh": discoveredSystem(t), "stale": staleSystem(t)} {
		h := NewServer(sys).Handler()
		snap := sys.CurrentSnapshot()
		if (name == "stale") != (len(snap.StaleRows) > 0) {
			t.Fatalf("%s snapshot has %d stale rows", name, len(snap.StaleRows))
		}
		for _, raw := range append([]string{"7", "15,1,8"}, pinnedPredictConfigs...) {
			var cfg anyopt.Config
			for _, part := range strings.Split(raw, ",") {
				id, _ := strconv.Atoi(part)
				cfg = append(cfg, id)
			}
			perSite, mean, n := oraclePrediction(snap, cfg)
			old := map[string]any{
				"config":        cfg,
				"mean_rtt_ms":   float64(mean) / 1e6,
				"predictable":   n,
				"catchment_szs": perSite,
				"health":        "fresh",
			}
			if k := len(snap.StaleRows); k > 0 {
				old["stale_rows"] = k
				old["stale_clients"] = staleClientsJSON(snap)
			}
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(old); err != nil {
				t.Fatal(err)
			}
			rec := doRecorded(h, http.MethodGet, "/v1/predict?config="+raw)
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
				t.Errorf("%s config=%s: status %d\n got %s\nwant %s", name, raw, rec.Code, rec.Body.Bytes(), want.Bytes())
			}
		}
	}
}

// TestOptimizeBodyMatchesMapEncoding is the same differential for
// /v1/optimize, on both solvers: proven is the optional key there, present
// exactly when a time budget is.
func TestOptimizeBodyMatchesMapEncoding(t *testing.T) {
	snap := discoveredSystem(t).CurrentSnapshot()
	for _, q := range []struct{ k, budget, timeBudgetMs int }{{6, 50, 0}, {4, 0, 20}} {
		body, err := optimizeResponse(snap, q.k, q.budget, q.timeBudgetMs, []int{2})
		if err != nil {
			t.Fatal(err)
		}
		old := map[string]any{
			"config":            body.Config,
			"predicted_mean_ms": body.PredictedMeanMs,
			"subsets":           body.Subsets,
			"orderable_clients": body.OrderableClients,
		}
		if budgeted := q.timeBudgetMs > 0; budgeted != (body.Proven != nil) {
			t.Fatalf("%+v: proven present: %v", q, body.Proven != nil)
		} else if budgeted {
			old["proven"] = *body.Proven
		}
		var got, want bytes.Buffer
		if err := json.NewEncoder(&got).Encode(body); err != nil {
			t.Fatal(err)
		}
		if err := json.NewEncoder(&want).Encode(old); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%+v:\n got %s\nwant %s", q, got.Bytes(), want.Bytes())
		}
	}
}

// FuzzParseConfig stands at /v1/predict's door: whatever the query string,
// parseConfig does not panic, lets through only distinct existing sites, and
// what it lets through the sweep predicts exactly as the per-client oracle.
func FuzzParseConfig(f *testing.F) {
	for _, seed := range append([]string{"", "0", "1,1", "16", "-1", "1,,2", " 3 , 9", "1,4,6&config=99", strings.Repeat("9", 10000)}, pinnedPredictConfigs...) {
		f.Add(seed)
	}
	sys := discoveredSystem(f)
	srv := NewServer(sys)
	snap := sys.CurrentSnapshot()
	f.Fuzz(func(t *testing.T, raw string) {
		r := httptest.NewRequest(http.MethodGet, "/v1/predict?config="+url.QueryEscape(raw), nil)
		cfg, err := srv.parseConfig(r)
		if err != nil {
			if cfg != nil {
				t.Fatalf("%q: rejected with %v but returned %v", raw, err, cfg)
			}
			return
		}
		if len(cfg) == 0 {
			t.Fatalf("%q: accepted as the empty configuration", raw)
		}
		seen := map[int]bool{}
		for _, id := range cfg {
			if sys.TB.Site(id) == nil || seen[id] {
				t.Fatalf("%q: accepted as %v, which names site %d twice or not at all", raw, cfg, id)
			}
			seen[id] = true
		}
		body := predictResponse(snap, cfg)
		perSite, mean, n := oraclePrediction(snap, cfg)
		if len(body.CatchmentSizes) != len(perSite) || body.Predictable != n || body.MeanRTTms != float64(mean)/1e6 {
			t.Fatalf("%q: swept %v, %v ms over %d; oracle %v, %v over %d", raw, body.CatchmentSizes, body.MeanRTTms, body.Predictable, perSite, mean, n)
		}
		for site, k := range perSite {
			if body.CatchmentSizes[site] != k {
				t.Fatalf("%q: swept %v, oracle %v", raw, body.CatchmentSizes, perSite)
			}
		}
	})
}

// TestPredictHandlerAllocations gates the whole request — routing, metrics,
// plan, sweep, JSON — at the widest configuration.
func TestPredictHandlerAllocations(t *testing.T) {
	h := NewServer(discoveredSystem(t)).Handler()
	const path = "/v1/predict?config=1,2,3,4,5,6,7,8,9,10,11,12,13,14,15"
	if rec := doRecorded(h, http.MethodGet, path); rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	got := testing.AllocsPerRun(20, func() {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, path, nil))
	})
	if got > 200 {
		t.Errorf("GET %s allocates %v, want at most 200", path, got)
	}
	t.Logf("GET %s: %v allocations", path, got)
}
