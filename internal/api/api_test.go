package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"anyopt"
	"anyopt/internal/testbed"
	"anyopt/internal/topology"
)

// testServer builds a server over a fresh (undiscovered) system.
func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	sys, err := anyopt.New(anyopt.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sys)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// discoveredServer caches one discovered system for the expensive paths.
var (
	sharedTS  *httptest.Server
	sharedSys *anyopt.System
)

func discoveredServer(t testing.TB) *httptest.Server {
	t.Helper()
	if sharedTS != nil {
		return sharedTS
	}
	sys, err := anyopt.New(anyopt.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RunDiscovery(); err != nil {
		t.Fatal(err)
	}
	sharedSys = sys
	sharedTS = httptest.NewServer(NewServer(sys).Handler())
	return sharedTS
}

// discoveredSystem is the system behind discoveredServer. Tests that publish
// snapshots of their own install its campaign on a fresh system instead.
func discoveredSystem(t testing.TB) *anyopt.System {
	t.Helper()
	discoveredServer(t)
	return sharedSys
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestTestbedEndpoint(t *testing.T) {
	_, ts := testServer(t)
	var got struct {
		Sites []struct {
			ID      int    `json:"id"`
			City    string `json:"city"`
			Transit string `json:"transit"`
			Peers   int    `json:"peers"`
		} `json:"sites"`
		Targets int `json:"targets"`
	}
	if code := getJSON(t, ts.URL+"/v1/testbed", &got); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(got.Sites) != 15 || got.Targets == 0 {
		t.Fatalf("testbed: %+v", got)
	}
	if got.Sites[3].City != "Singapore" || got.Sites[3].Peers != 15 {
		t.Errorf("site 4 = %+v", got.Sites[3])
	}
}

func TestPredictRequiresDiscovery(t *testing.T) {
	_, ts := testServer(t)
	if code := getJSON(t, ts.URL+"/v1/predict?config=1,4", nil); code != http.StatusConflict {
		t.Errorf("status %d, want 409 before discovery", code)
	}
}

func TestDiscoverPredictOptimizeFlow(t *testing.T) {
	ts := discoveredServer(t)

	var pred struct {
		MeanRTTms   float64        `json:"mean_rtt_ms"`
		Predictable int            `json:"predictable"`
		Catchments  map[string]int `json:"catchment_szs"`
	}
	if code := getJSON(t, ts.URL+"/v1/predict?config=1,4,6", &pred); code != 200 {
		t.Fatalf("predict status %d", code)
	}
	if pred.MeanRTTms <= 0 || pred.Predictable < 100 {
		t.Fatalf("predict: %+v", pred)
	}
	for site := range pred.Catchments {
		if site != "1" && site != "4" && site != "6" {
			t.Errorf("catchment at unexpected site %s", site)
		}
	}

	var meas struct {
		MeanRTTms float64 `json:"mean_rtt_ms"`
		Measured  int     `json:"measured"`
	}
	if code := getJSON(t, ts.URL+"/v1/measure?config=1,4,6", &meas); code != 200 {
		t.Fatalf("measure status %d", code)
	}
	rel := (pred.MeanRTTms - meas.MeanRTTms) / meas.MeanRTTms
	if rel < -0.15 || rel > 0.15 {
		t.Errorf("prediction %0.1f vs measurement %0.1f diverge", pred.MeanRTTms, meas.MeanRTTms)
	}

	var opt struct {
		Config  []int   `json:"config"`
		Mean    float64 `json:"predicted_mean_ms"`
		Subsets int     `json:"subsets"`
	}
	if code := getJSON(t, ts.URL+"/v1/optimize?k=6", &opt); code != 200 {
		t.Fatalf("optimize status %d", code)
	}
	if len(opt.Config) != 6 || opt.Mean <= 0 {
		t.Fatalf("optimize: %+v", opt)
	}

	// Exclusion is honored.
	excluded := opt.Config[0]
	var opt2 struct {
		Config []int `json:"config"`
	}
	url := fmt.Sprintf("%s/v1/optimize?k=6&exclude=%d", ts.URL, excluded)
	if code := getJSON(t, url, &opt2); code != 200 {
		t.Fatalf("optimize exclude status %d", code)
	}
	for _, id := range opt2.Config {
		if id == excluded {
			t.Errorf("excluded site %d in config %v", excluded, opt2.Config)
		}
	}

	// A time budget routes to the branch-and-bound, which proves the same
	// optimum well inside it and says so.
	var opt3 struct {
		Config []int   `json:"config"`
		Mean   float64 `json:"predicted_mean_ms"`
		Proven *bool   `json:"proven"`
	}
	if code := getJSON(t, ts.URL+"/v1/optimize?k=6&time_budget_ms=60000", &opt3); code != 200 {
		t.Fatalf("optimize with time budget: status %d", code)
	}
	if !slices.Equal(opt3.Config, opt.Config) || opt3.Mean != opt.Mean || opt3.Proven == nil || !*opt3.Proven {
		t.Fatalf("time-budgeted optimize: %+v, want %v at %v ms, proven", opt3, opt.Config, opt.Mean)
	}
}

// TestServedBytesPinned holds the 15-site read path to the bytes it serves at
// DefaultOptions(), exact to the newline. The bodies were first recorded at
// commit 6e5eab5, before /v1/optimize collapsed onto Snapshot.OptimizeWith,
// and re-recorded once since, by the change on top of cea8957 that moved the
// per-target noise and probe-loss streams onto internal/splitmix: the read
// path did not change there, the campaign it reads did (every noisy RTT, and
// with them one orderable client and the k=12 optimum's last site).
func TestServedBytesPinned(t *testing.T) {
	ts := discoveredServer(t)
	for path, want := range map[string]string{
		"/v1/optimize?k=12":                                `{"config":[1,2,12,5,15,7,9,11,3,8,10,14],"orderable_clients":337,"predicted_mean_ms":178.743876,"subsets":455}`,
		"/v1/optimize?k=0&exclude=2,7":                     `{"config":[1,12,5,15,6,9,11],"orderable_clients":337,"predicted_mean_ms":181.144438,"subsets":8191}`,
		"/v1/optimize?k=8&budget=500":                      `{"config":[1,2,12,5,6,7,9,11],"orderable_clients":337,"predicted_mean_ms":181.804091,"subsets":500}`,
		"/v1/optimize?k=6&exclude=4&budget=300":            `{"config":[1,2,5,7,9,11],"orderable_clients":337,"predicted_mean_ms":181.587202,"subsets":300}`,
		"/v1/predict?config=1,4,6":                         `{"catchment_szs":{"1":215,"4":83,"6":41},"config":[1,4,6],"health":"fresh","mean_rtt_ms":292.351573,"predictable":339}`,
		"/v1/predict?config=2,3,5,7,8,9,10,11,12,13,14,15": `{"catchment_szs":{"10":23,"11":10,"13":38,"14":2,"15":17,"2":112,"3":49,"5":53,"7":7,"9":11},"config":[2,3,5,7,8,9,10,11,12,13,14,15],"health":"fresh","mean_rtt_ms":208.091776,"predictable":322}`,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || string(got) != want+"\n" {
			t.Errorf("GET %s: status %d\n got %s want %s", path, resp.StatusCode, got, want)
		}
	}
}

func TestScheduleEndpoint(t *testing.T) {
	_, ts := testServer(t)
	var got struct {
		Singleton      int     `json:"singleton_experiments"`
		Pairwise       int     `json:"pairwise_experiments"`
		SingletonHours float64 `json:"singleton_hours"`
	}
	if code := getJSON(t, ts.URL+"/v1/schedule?sites=500&providers=20&prefixes=4", &got); code != 200 {
		t.Fatalf("status %d", code)
	}
	if got.Singleton != 500 || got.Pairwise != 380 || got.SingletonHours != 250 {
		t.Fatalf("schedule: %+v", got)
	}
}

func TestCampaignRoundTripOverHTTP(t *testing.T) {
	ts := discoveredServer(t)

	resp, err := http.Get(ts.URL + "/v1/campaign")
	if err != nil {
		t.Fatal(err)
	}
	snapshot, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("export: status %d err %v", resp.StatusCode, err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("export Content-Type %q, want application/octet-stream", ct)
	}

	// A fresh server imports the campaign and can predict immediately.
	_, ts2 := testServer(t)
	resp, err = http.Post(ts2.URL+"/v1/campaign", "application/octet-stream", bytes.NewReader(snapshot))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("import status %d", resp.StatusCode)
	}
	if code := getJSON(t, ts2.URL+"/v1/predict?config=1,4", nil); code != 200 {
		t.Errorf("predict after import: status %d", code)
	}
}

func TestBadRequests(t *testing.T) {
	ts := discoveredServer(t)
	cases := []string{
		"/v1/predict",                      // missing config
		"/v1/predict?config=x",             // bad id
		"/v1/predict?config=1,1",           // duplicate site
		"/v1/predict?config=99",            // out-of-range site
		"/v1/predict?config=0",             // out-of-range site (low)
		"/v1/measure?config=4,4",           // duplicate site
		"/v1/measure?config=-2",            // out-of-range site
		"/v1/optimize?k=abc",               // bad k
		"/v1/optimize?k=-1",                // negative k
		"/v1/optimize?exclude=zz",          // bad exclude
		"/v1/optimize?time_budget_ms=nope", // bad time budget
		"/v1/optimize?time_budget_ms=-5",   // negative time budget
		"/v1/schedule?sites=banana",        // bad int
	}
	for _, path := range cases {
		if code := getJSON(t, ts.URL+path, nil); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, code)
		}
	}
	// Wrong method.
	resp, err := http.Get(ts.URL + "/v1/discover")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/discover: status %d, want 405", resp.StatusCode)
	}
}

func TestDiscoverEndpointWait(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Post(ts.URL+"/v1/discover?wait=1", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		Experiments int `json:"experiments"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || got.Experiments == 0 {
		t.Fatalf("discover: status %d, %+v", resp.StatusCode, got)
	}
}

// pollJob polls the job until it leaves the running state.
func pollJob(t *testing.T, ts *httptest.Server, id string) (state string, view map[string]any) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		var got map[string]any
		if code := getJSON(t, ts.URL+"/v1/jobs/"+id, &got); code != 200 {
			t.Fatalf("job status %d", code)
		}
		state, _ = got["state"].(string)
		if state != "running" {
			return state, got
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s still running after deadline", id)
	return "", nil
}

func TestDiscoverJobAsync(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Post(ts.URL+"/v1/discover", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var accepted struct {
		JobID string `json:"job_id"`
		State string `json:"state"`
	}
	err = json.NewDecoder(resp.Body).Decode(&accepted)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted || accepted.JobID == "" {
		t.Fatalf("discover accept: status %d %+v err %v", resp.StatusCode, accepted, err)
	}

	// The read path answers (with 409) while the job runs — it is not blocked.
	if code := getJSON(t, ts.URL+"/v1/testbed", nil); code != 200 {
		t.Errorf("testbed during job: status %d", code)
	}

	state, view := pollJob(t, ts, accepted.JobID)
	if state != "done" {
		t.Fatalf("job finished as %q: %+v", state, view)
	}
	result, _ := view["result"].(map[string]any)
	if result == nil || result["experiments"].(float64) == 0 {
		t.Fatalf("job result: %+v", view)
	}
	// The progress denominator is the schedule length: fault-free, a finished
	// campaign ran exactly that many experiments.
	if total := view["total_experiments"]; total != result["experiments"] {
		t.Errorf("total_experiments = %v, campaign ran %v", total, result["experiments"])
	}
	if gen := result["snapshot_gen"].(float64); gen != 1 {
		t.Errorf("snapshot_gen = %v, want 1", gen)
	}

	// The completed campaign was published: predictions work now.
	if code := getJSON(t, ts.URL+"/v1/predict?config=1,4", nil); code != 200 {
		t.Errorf("predict after job: status %d", code)
	}

	// The job shows up in the listing.
	var list struct {
		Jobs []map[string]any `json:"jobs"`
	}
	if code := getJSON(t, ts.URL+"/v1/jobs", &list); code != 200 || len(list.Jobs) != 1 {
		t.Errorf("job list: %+v", list)
	}
}

func TestDiscoverJobConflictAndCancel(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Post(ts.URL+"/v1/discover", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var accepted struct {
		JobID string `json:"job_id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&accepted)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("discover accept: status %d err %v", resp.StatusCode, err)
	}

	// A second concurrent campaign is refused while the first runs. The first
	// may finish before we ask; both outcomes are legal, only 202 is not.
	resp, err = http.Post(ts.URL+"/v1/discover", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusAccepted {
		if state, _ := pollJob(t, ts, accepted.JobID); state == "running" {
			t.Errorf("second job accepted while first still running")
		}
	}

	// Cancellation: either it lands while running (job ends cancelled and no
	// snapshot appears) or the job already finished (409).
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+accepted.JobID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	state, _ := pollJob(t, ts, accepted.JobID)
	switch dresp.StatusCode {
	case http.StatusOK:
		if state != "cancelled" && state != "done" {
			t.Errorf("after cancel, job state = %q", state)
		}
		if state == "cancelled" {
			if code := getJSON(t, ts.URL+"/v1/predict?config=1,4", nil); code != http.StatusConflict {
				t.Errorf("predict after cancelled job: status %d, want 409", code)
			}
		}
	case http.StatusConflict:
		if state != "done" {
			t.Errorf("cancel refused but job state = %q", state)
		}
	default:
		t.Errorf("cancel status %d", dresp.StatusCode)
	}

	if code := getJSON(t, ts.URL+"/v1/jobs/nope", nil); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", code)
	}
}

func TestEmptyTestbedSitesIsArray(t *testing.T) {
	srv := NewServer(&anyopt.System{
		Topo: &topology.Topology{},
		TB:   &testbed.Testbed{},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/testbed")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("testbed: status %d err %v", resp.StatusCode, err)
	}
	if !bytes.Contains(body, []byte(`"sites":[]`)) {
		t.Errorf("empty testbed sites not [] in %s", body)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts := discoveredServer(t)
	if code := getJSON(t, ts.URL+"/v1/predict?config=1,4", nil); code != 200 {
		t.Fatalf("predict: status %d", code)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("metrics: status %d err %v", resp.StatusCode, err)
	}
	for _, want := range []string{
		`anyoptd_requests_total{endpoint="predict",code="2xx"}`,
		`anyoptd_request_duration_seconds_bucket{endpoint="predict",le="+Inf"}`,
		"anyoptd_snapshot_generation 1",
		`anyoptd_sim_pool_acquires_total{outcome="hit"}`,
		`anyoptd_discovery_jobs{state="running"} 0`,
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
