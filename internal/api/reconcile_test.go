package api

// Tests for the churn reconciler's HTTP surface: end-to-end churn → repair
// convergence, degraded-mode staleness visibility on /v1/predict, the
// /v1/reconcile health view, crash-resume from the reconcile checkpoint, and
// the job-cancel races.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"anyopt"
	"anyopt/internal/campaign"
	"anyopt/internal/core/prefs"
	"anyopt/internal/fault"
)

// discoveredChurnServer builds a private discovered server. Churn mutates the
// topology, so these tests never share the cached fixture.
func discoveredChurnServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	sys, err := anyopt.New(anyopt.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RunDiscovery(); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sys)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]any{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding %s response: %v", url, err)
	}
	return resp.StatusCode, out
}

func TestChurnRequiresCampaign(t *testing.T) {
	_, ts := testServer(t)
	if code, _ := postJSON(t, ts.URL+"/v1/churn", `{"seed":7}`); code != http.StatusConflict {
		t.Errorf("churn before discovery: status %d, want 409", code)
	}
}

// TestHealOptimizeMatchesOptimizeEndpoint: the optimum /v1/reconcile reports
// for a healed generation is the one GET /v1/optimize serves on it, byte for
// byte, because the heal asks OptimizeWith the same question.
func TestHealOptimizeMatchesOptimizeEndpoint(t *testing.T) {
	_, ts := discoveredChurnServer(t)
	if code, got := postJSON(t, ts.URL+"/v1/churn?sync=1", `{"seed":7,"count":2}`); code != http.StatusAccepted {
		t.Fatalf("churn status %d: %v", code, got)
	}
	var rec struct {
		Gen      uint64 `json:"snapshot_gen"`
		Optimize struct {
			Gen             uint64          `json:"gen"`
			Config          json.RawMessage `json:"config"`
			PredictedMeanMs json.RawMessage `json:"predicted_mean_ms"`
			Subsets         int             `json:"subsets"`
		} `json:"optimize"`
	}
	if code := getJSON(t, ts.URL+"/v1/reconcile", &rec); code != 200 {
		t.Fatalf("reconcile status %d", code)
	}
	var opt struct {
		Config          json.RawMessage `json:"config"`
		PredictedMeanMs json.RawMessage `json:"predicted_mean_ms"`
		Subsets         int             `json:"subsets"`
	}
	if code := getJSON(t, ts.URL+"/v1/optimize?k=0", &opt); code != 200 {
		t.Fatalf("optimize status %d", code)
	}
	if rec.Optimize.Gen != rec.Gen || rec.Optimize.Subsets != opt.Subsets ||
		!bytes.Equal(rec.Optimize.Config, opt.Config) || !bytes.Equal(rec.Optimize.PredictedMeanMs, opt.PredictedMeanMs) {
		t.Errorf("heal's optimum (gen %d of %d): config %s, %s ms, %d subsets; /v1/optimize?k=0: config %s, %s ms, %d subsets",
			rec.Optimize.Gen, rec.Gen, rec.Optimize.Config, rec.Optimize.PredictedMeanMs, rec.Optimize.Subsets,
			opt.Config, opt.PredictedMeanMs, opt.Subsets)
	}
}

func TestChurnSyncHealsAndStaysFresh(t *testing.T) {
	srv, ts := discoveredChurnServer(t)
	startGen := srv.sys.CurrentSnapshot().Gen

	code, got := postJSON(t, ts.URL+"/v1/churn?sync=1", `{"seed":7,"count":2}`)
	if code != http.StatusAccepted {
		t.Fatalf("churn status %d: %v", code, got)
	}
	if got["applied"].(float64) < 1 || got["cone_clients"].(float64) < 1 {
		t.Fatalf("churn response: %v", got)
	}
	// ?sync=1 drained the repair before answering: staleness must be gone and
	// the snapshot two generations ahead (stale-mark patch + healed patch).
	if got["health"] != "fresh" || got["stale_rows"].(float64) != 0 {
		t.Errorf("after sync churn: health=%v stale_rows=%v", got["health"], got["stale_rows"])
	}
	if gen := got["snapshot_gen"].(float64); gen != float64(startGen+2) {
		t.Errorf("snapshot gen %v, want %d", gen, startGen+2)
	}
	if got["repairs"].(float64) != 1 {
		t.Errorf("repairs = %v, want 1", got["repairs"])
	}
	probed := got["last_probed_targets"].(float64)
	total := got["last_total_targets"].(float64)
	if probed <= 0 || probed >= total {
		t.Errorf("repair scope %v/%v targets, want a strict subset", probed, total)
	}

	var pred map[string]any
	if code := getJSON(t, ts.URL+"/v1/predict?config=1,4,6", &pred); code != 200 {
		t.Fatalf("predict status %d", code)
	}
	if pred["health"] != "fresh" {
		t.Errorf("predict health = %v", pred["health"])
	}
	if _, ok := pred["stale_rows"]; ok {
		t.Error("healed snapshot still advertises stale rows on /v1/predict")
	}

	var rec map[string]any
	if code := getJSON(t, ts.URL+"/v1/reconcile", &rec); code != 200 {
		t.Fatalf("reconcile status %d", code)
	}
	if rec["health"] != "fresh" || rec["stale_rows"].(float64) != 0 ||
		rec["repairs"].(float64) != 1 || rec["walker_warm"] != true {
		t.Errorf("reconcile view: %v", rec)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(raw)
	for _, want := range []string{
		"anyoptd_reconcile_health 0",
		"anyoptd_stale_rows 0",
		"anyoptd_repairs_total{outcome=\"ok\"} 1",
		"anyoptd_cones_in_flight 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestChurnStalenessVisibleUntilRepair(t *testing.T) {
	srv, ts := discoveredChurnServer(t)

	// Hold the repair mutex so the queued repair cannot run: the degraded
	// window becomes observable instead of racing the background loop.
	srv.rec.repairMu.Lock()
	unlocked := false
	defer func() {
		if !unlocked {
			srv.rec.repairMu.Unlock()
		}
	}()

	code, got := postJSON(t, ts.URL+"/v1/churn", `{"seed":3}`)
	if code != http.StatusAccepted {
		t.Fatalf("churn status %d: %v", code, got)
	}
	if got["health"] != "reconciling" {
		t.Errorf("queued churn health = %v, want reconciling", got["health"])
	}
	staleRows := got["stale_rows"].(float64)
	if staleRows < 1 {
		t.Fatalf("churn marked %v rows stale, want >= 1", staleRows)
	}

	// Degraded-mode serving: /v1/predict still answers, but carries the
	// staleness annotation until the repair commits.
	var pred map[string]any
	if code := getJSON(t, ts.URL+"/v1/predict?config=1,4,6", &pred); code != 200 {
		t.Fatalf("predict status %d", code)
	}
	if pred["health"] != "reconciling" {
		t.Errorf("predict health = %v, want reconciling", pred["health"])
	}
	if pred["stale_rows"].(float64) != staleRows {
		t.Errorf("predict stale_rows = %v, churn marked %v", pred["stale_rows"], staleRows)
	}
	clients, ok := pred["stale_clients"].([]any)
	if !ok || len(clients) != int(staleRows) {
		t.Fatalf("predict stale_clients = %v", pred["stale_clients"])
	}
	first := clients[0].(map[string]any)
	if first["client"].(float64) <= 0 || first["gen"].(float64) <= 0 {
		t.Errorf("stale client entry: %v", first)
	}

	var rec map[string]any
	getJSON(t, ts.URL+"/v1/reconcile", &rec)
	if rec["pending_clients"].(float64) < 1 {
		t.Errorf("reconcile pending_clients = %v, want >= 1", rec["pending_clients"])
	}

	// Release the repair and drain it inline: runRepairCycle serializes on
	// repairMu with the background loop, so when this call returns the cone is
	// healed whichever goroutine did the work.
	srv.rec.repairMu.Unlock()
	unlocked = true
	srv.runRepairCycle()

	pred = nil // decoding into a non-nil map merges keys; start clean
	if code := getJSON(t, ts.URL+"/v1/predict?config=1,4,6", &pred); code != 200 {
		t.Fatalf("predict status %d", code)
	}
	if pred["health"] != "fresh" {
		t.Errorf("post-repair predict health = %v", pred["health"])
	}
	if _, stale := pred["stale_rows"]; stale {
		t.Error("post-repair predict still advertises stale rows")
	}
}

func TestChurnBadRequests(t *testing.T) {
	srv, ts := discoveredChurnServer(t)
	gen := srv.sys.CurrentSnapshot().Gen

	if code, _ := postJSON(t, ts.URL+"/v1/churn", `{"kinds":["nope"]}`); code != http.StatusBadRequest {
		t.Errorf("bad kind: status %d, want 400", code)
	}
	// The plan is built in memory before anything applies; an absurd count is
	// refused, not allocated.
	if code, _ := postJSON(t, ts.URL+"/v1/churn", `{"seed":1,"count":1000000000000}`); code != http.StatusBadRequest {
		t.Errorf("huge count: status %d, want 400", code)
	}
	// A batch with one bad event is rejected whole — ApplyChurn validates it
	// before any mutation, so no prefix of the batch leaks into the topology.
	bad := `{"events":[{"kind":"link_cost","link":1,"new_delay":1000000},{"kind":"link_down","link":999999}]}`
	if code, _ := postJSON(t, ts.URL+"/v1/churn", bad); code != http.StatusBadRequest {
		t.Errorf("bad batch: status %d, want 400", code)
	}
	if got := srv.sys.CurrentSnapshot().Gen; got != gen {
		t.Errorf("rejected churn advanced the snapshot: gen %d -> %d", gen, got)
	}
	if len(srv.sys.CurrentSnapshot().StaleRows) != 0 {
		t.Error("rejected churn left stale marks")
	}
}

// TestJobCancelAfterComplete is the satellite regression: cancelling a job
// that already published its campaign must answer 409 with the terminal
// state, never 200 "cancelling" for work that cannot be uncommitted.
func TestJobCancelAfterComplete(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Post(ts.URL+"/v1/discover?wait=1", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("synchronous discover: status %d", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/job-1", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	if dresp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel after complete: status %d, want 409", dresp.StatusCode)
	}
	var got struct {
		State  string         `json:"state"`
		Result map[string]any `json:"result"`
		Error  string         `json:"error"`
	}
	if err := json.NewDecoder(dresp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.State != "done" || got.Error == "" {
		t.Errorf("cancel-after-complete body: %+v", got)
	}
	if got.Result == nil || got.Result["snapshot_gen"].(float64) < 1 {
		t.Errorf("409 should carry the terminal result, got %v", got.Result)
	}
}

// TestJobCancelMidFlight races a cancel against a running campaign: a 200
// means the cancel landed while running (the job must end cancelled or have
// won the race to done), a 409 means the job finished first and the response
// names the terminal state.
func TestJobCancelMidFlight(t *testing.T) {
	_, ts := testServer(t)
	code, accepted := postJSON(t, ts.URL+"/v1/discover", "")
	if code != http.StatusAccepted {
		t.Fatalf("discover: status %d", code)
	}
	id := accepted["job_id"].(string)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	err = json.NewDecoder(dresp.Body).Decode(&body)
	dresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	state, _ := pollJob(t, ts, id)
	switch dresp.StatusCode {
	case http.StatusOK:
		if body["cancelling"] != true {
			t.Errorf("200 cancel body: %v", body)
		}
		if state != "cancelled" && state != "done" {
			t.Errorf("after mid-flight cancel, job state = %q", state)
		}
	case http.StatusConflict:
		if body["state"] != state || state == "running" {
			t.Errorf("409 cancel: body state %v, job state %q", body["state"], state)
		}
	default:
		t.Errorf("cancel status %d", dresp.StatusCode)
	}
}

// TestReconcileResume is the satellite-2 regression: a crash between the
// stale-mark patch and the repair commit must resume — and replay only — the
// unfinished cone repair on restart.
func TestReconcileResume(t *testing.T) {
	dir := t.TempDir()

	srvA, tsA := discoveredChurnServer(t)
	srvA.SetCheckpointDir(dir)
	// Block A's repair loop: the churn below journals a pending patch record
	// that never commits — the crash window.
	srvA.rec.repairMu.Lock()
	defer srvA.rec.repairMu.Unlock()
	code, got := postJSON(t, tsA.URL+"/v1/churn", `{"seed":11}`)
	if code != http.StatusAccepted {
		t.Fatalf("churn status %d: %v", code, got)
	}
	staleRows := int(got["stale_rows"].(float64))
	if staleRows < 1 {
		t.Fatal("churn marked no rows stale")
	}

	// "Restart": a fresh identically-seeded server over the same checkpoint
	// directory. Its topology regenerates pristine, so the resume path must
	// re-apply the journaled churn events before re-queuing the repair.
	srvB, _ := discoveredChurnServer(t)
	srvB.SetCheckpointDir(dir)
	n, err := srvB.ResumePendingRepairs()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("resumed %d cone repairs, want 1", n)
	}
	snap := srvB.sys.CurrentSnapshot()
	if len(snap.StaleRows) != staleRows {
		t.Errorf("resume re-marked %d rows stale, churn had marked %d", len(snap.StaleRows), staleRows)
	}

	srvB.runRepairCycle()
	healed := srvB.sys.CurrentSnapshot()
	if len(healed.StaleRows) != 0 {
		t.Errorf("resumed repair left %d stale rows", len(healed.StaleRows))
	}
	if health := srvB.recHealth(); health.String() != "fresh" {
		t.Errorf("post-resume health = %v", health)
	}

	// A second restart finds nothing to do: the patch record was marked done
	// when the resumed repair committed.
	srvC, _ := discoveredChurnServer(t)
	srvC.SetCheckpointDir(dir)
	if n, err := srvC.ResumePendingRepairs(); err != nil || n != 0 {
		t.Errorf("second resume: n=%d err=%v, want 0 resumed", n, err)
	}
}

// TestResumeReplaysPatchesInGenOrder journals two pending patch records whose
// lexicographic id order ("churn-10" < "churn-2") inverts their generation
// order. Churn events carry absolute values, so replaying them out of order
// would reconstruct a post-crash topology different from the pre-crash one; a
// correct resume replays by generation and the later record's value wins. It
// also covers the resume-then-churn race: a churn arriving while the resumed
// cone is still queued must merge into it without panicking on the cone's
// unjournaled AS set.
func TestResumeReplaysPatchesInGenOrder(t *testing.T) {
	dir := t.TempDir()
	srv, ts := discoveredChurnServer(t)
	link := srv.sys.Topo.Links[0]
	client := prefs.Client(srv.sys.Topo.Targets[0].AS)

	ck, err := campaign.NewCheckpoint(filepath.Join(dir, "reconcile.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	evOld, _ := json.Marshal([]fault.ChurnEvent{
		{Kind: fault.ChurnLinkCost, Link: link.ID, NewDelay: 5 * time.Millisecond},
	})
	evNew, _ := json.Marshal([]fault.ChurnEvent{
		{Kind: fault.ChurnLinkCost, Link: link.ID, NewDelay: 9 * time.Millisecond},
	})
	if err := ck.RecordPatchPending("churn-2", campaign.PatchRecord{
		Gen: 2, Clients: []prefs.Client{client}, Events: evOld,
	}); err != nil {
		t.Fatal(err)
	}
	if err := ck.RecordPatchPending("churn-10", campaign.PatchRecord{
		Gen: 10, Clients: []prefs.Client{client}, Events: evNew,
	}); err != nil {
		t.Fatal(err)
	}

	srv.SetCheckpointDir(dir)
	// Hold the repair lock so the resumed cone stays queued: the churn below
	// must merge into it instead of racing the background drain.
	srv.rec.repairMu.Lock()
	defer srv.rec.repairMu.Unlock()

	n, err := srv.ResumePendingRepairs()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("resumed %d records, want 2", n)
	}
	if link.Delay != 9*time.Millisecond {
		t.Errorf("replayed link delay = %v, want 9ms (the gen-10 record's value)", link.Delay)
	}

	if code, got := postJSON(t, ts.URL+"/v1/churn", `{"seed":11}`); code != http.StatusAccepted {
		t.Fatalf("churn while resumed cone queued: status %d: %v", code, got)
	}
}

// TestChurnJournalFailureStillRepairs breaks the reconcile journal out from
// under an already-applied churn: the stale marks are published and the
// topology mutated, so aborting would strand the cone stale forever. The
// handler must surface the journaling error but still queue (and here,
// synchronously drain) the repair.
func TestChurnJournalFailureStillRepairs(t *testing.T) {
	srv, ts := discoveredChurnServer(t)
	dir := filepath.Join(t.TempDir(), "ckpt")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	srv.SetCheckpointDir(dir)
	if srv.recCheckpoint() == nil {
		t.Fatal("checkpoint did not open")
	}
	// The checkpoint is open; removing its directory makes the next persist
	// (the pending-patch record) fail.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}

	code, got := postJSON(t, ts.URL+"/v1/churn?sync=1", `{"seed":7}`)
	if code != http.StatusAccepted {
		t.Fatalf("churn status %d: %v", code, got)
	}
	if got["journal_error"] == nil {
		t.Error("journaling failure not surfaced in the response")
	}
	if got["health"] != "fresh" || got["stale_rows"].(float64) != 0 || got["repairs"].(float64) != 1 {
		t.Errorf("journal failure aborted the repair path: %v", got)
	}
}
