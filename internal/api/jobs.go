package api

// Async discovery jobs. POST /v1/discover no longer blocks the server for
// the length of a measurement campaign: it registers a job, runs the
// campaign on a private Discovery session in a background goroutine (this
// package is an allowed goroutine owner in the lint policy — the job runner
// is exactly why), and atomically publishes the finished campaign as a fresh
// snapshot. Readers keep serving the previous snapshot, uninterrupted, for
// the entire run.
//
// Jobs are cancellable (DELETE /v1/jobs/{id} cancels the Discovery context;
// exec.Pool.ForEachCtx drains queued experiments at the next batch boundary)
// and checkpointable (?checkpoint=name journals completed experiments
// through campaign.Checkpoint; a re-run with the same name replays them
// byte-identically and continues where the crash happened). A job uses a
// fresh Discovery whose nonces start at zero — the same deterministic
// schedule as System.RunDiscovery — so resumed and uninterrupted campaigns
// produce identical snapshots.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"anyopt/internal/campaign"
	"anyopt/internal/core/discovery"
	"anyopt/internal/core/predict"
	"anyopt/internal/core/prefs"
)

// Job states.
const (
	jobRunning   = "running"
	jobDone      = "done"
	jobFailed    = "failed"
	jobCancelled = "cancelled"
)

// discoverResult is the payload of a completed discovery job — the same
// shape the synchronous endpoint historically returned.
type discoverResult struct {
	Experiments int          `json:"experiments"`
	Probes      uint64       `json:"probes"`
	ElapsedMS   int64        `json:"elapsed_ms"`
	AnnOrder    []prefs.Item `json:"ann_order"`
	SnapshotGen uint64       `json:"snapshot_gen"`
}

// job is one discovery campaign run. Mutable fields are guarded by mu;
// progress is read lock-free from the session's atomic counters.
type job struct {
	id    string
	disc  *discovery.Discovery
	total int
	start time.Time

	cancel context.CancelFunc

	mu       sync.Mutex
	state    string
	errMsg   string
	finished time.Time
	result   *discoverResult
}

// view renders the job for JSON responses.
func (j *job) view() map[string]any {
	j.mu.Lock()
	state, errMsg, finished, result := j.state, j.errMsg, j.finished, j.result
	j.mu.Unlock()
	elapsed := time.Since(j.start)
	if !finished.IsZero() {
		elapsed = finished.Sub(j.start)
	}
	out := map[string]any{
		"id":                    j.id,
		"state":                 state,
		"completed_experiments": j.disc.CompletedExperiments(),
		"total_experiments":     j.total,
		"elapsed_ms":            elapsed.Milliseconds(),
	}
	if errMsg != "" {
		out["error"] = errMsg
	}
	if result != nil {
		out["result"] = result
	}
	return out
}

func (j *job) finish(state, errMsg string, result *discoverResult) {
	j.mu.Lock()
	j.state, j.errMsg, j.result, j.finished = state, errMsg, result, time.Now()
	j.mu.Unlock()
}

// jobRegistry tracks discovery jobs. At most one runs at a time: campaign
// writers are serialized, and queueing a second multi-week campaign behind
// the first silently is worse than telling the operator now.
type jobRegistry struct {
	mu      sync.Mutex
	jobs    map[string]*job
	order   []string
	seq     int
	running *job
}

// begin registers a new running job, failing if one is already in flight.
// The cancel func is installed before the job becomes visible, so a cancel
// request can never observe a half-built job.
func (r *jobRegistry) begin(disc *discovery.Discovery, total int, cancel context.CancelFunc) (*job, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.running != nil {
		return nil, fmt.Errorf("discovery job %s is already running", r.running.id)
	}
	r.seq++
	j := &job{
		id:     fmt.Sprintf("job-%d", r.seq),
		disc:   disc,
		total:  total,
		start:  time.Now(),
		state:  jobRunning,
		cancel: cancel,
	}
	if r.jobs == nil {
		r.jobs = make(map[string]*job)
	}
	r.jobs[j.id] = j
	r.order = append(r.order, j.id)
	r.running = j
	return j, nil
}

// done clears the running slot.
func (r *jobRegistry) done(j *job) {
	r.mu.Lock()
	if r.running == j {
		r.running = nil
	}
	r.mu.Unlock()
}

func (r *jobRegistry) get(id string) (*job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	return j, ok
}

// list returns all jobs in creation order.
func (r *jobRegistry) list() []*job {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*job, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.jobs[id])
	}
	return out
}

// stateCounts tallies jobs by state, for /metrics.
func (r *jobRegistry) stateCounts() map[string]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string]int{jobRunning: 0, jobDone: 0, jobFailed: 0, jobCancelled: 0}
	for _, j := range r.jobs {
		j.mu.Lock()
		out[j.state]++
		j.mu.Unlock()
	}
	return out
}

func (s *Server) handleDiscover(w http.ResponseWriter, r *http.Request) {
	disc := discovery.New(s.sys.TB, s.sys.Options().Discovery)
	if name := r.URL.Query().Get("checkpoint"); name != "" {
		if s.checkpointDir == "" {
			writeErr(w, http.StatusBadRequest, "checkpointing is not enabled on this server")
			return
		}
		if name != filepath.Base(name) || strings.HasPrefix(name, ".") {
			writeErr(w, http.StatusBadRequest, "bad checkpoint name %q", name)
			return
		}
		ck, err := campaign.NewCheckpoint(filepath.Join(s.checkpointDir, name+".ckpt"))
		if err != nil {
			writeErr(w, http.StatusInternalServerError, "opening checkpoint: %v", err)
			return
		}
		disc.SetJournal(ck)
	}

	ctx, cancel := context.WithCancel(context.Background())
	disc.SetContext(ctx)
	// The schedule length is the progress denominator.
	total := discovery.CampaignExperiments(s.sys.TB, s.sys.Options().UseRTTHeuristic)
	j, err := s.jobs.begin(disc, total, cancel)
	if err != nil {
		cancel()
		writeErr(w, http.StatusConflict, "%v", err)
		return
	}

	if r.URL.Query().Get("wait") == "1" {
		// Legacy synchronous mode: run the job inline and answer with the
		// completed campaign, exactly as the pre-job API did.
		s.runDiscoverJob(j)
		j.mu.Lock()
		state, errMsg, result := j.state, j.errMsg, j.result
		j.mu.Unlock()
		if state != jobDone {
			writeErr(w, http.StatusInternalServerError, "discovery: %s", errMsg)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"experiments": result.Experiments,
			"probes":      result.Probes,
			"elapsed_ms":  result.ElapsedMS,
			"ann_order":   result.AnnOrder,
		})
		return
	}

	go func() {
		s.runDiscoverJob(j)
	}()
	writeJSON(w, http.StatusAccepted, map[string]any{
		"job_id": j.id,
		"state":  jobRunning,
		"status": "/v1/jobs/" + j.id,
	})
}

// runDiscoverJob executes one campaign to completion (or cancellation) and,
// on success, publishes the result as the System's current snapshot.
func (s *Server) runDiscoverJob(j *job) {
	defer s.jobs.done(j)
	defer j.cancel()

	// The campaign's simulations read the live topology; the read lock makes
	// churn application wait for the job instead of mutating under it.
	s.topoMu.RLock()
	pred, rtt, err := predict.NewPredictor(s.sys.TB, j.disc, s.sys.Options().UseRTTHeuristic)
	s.topoMu.RUnlock()
	if err != nil {
		if errors.Is(err, context.Canceled) {
			j.finish(jobCancelled, "cancelled by operator", nil)
		} else {
			j.finish(jobFailed, err.Error(), nil)
		}
		return
	}
	order, _ := pred.Providers.BestAnnouncementOrder(7)

	s.writeMu.Lock()
	snap := s.sys.InstallCampaign(pred, rtt, order, j.disc.Experiments, j.disc.Quarantined())
	s.writeMu.Unlock()

	j.finish(jobDone, "", &discoverResult{
		Experiments: j.disc.Experiments,
		Probes:      j.disc.ProbesSent,
		ElapsedMS:   time.Since(j.start).Milliseconds(),
		AnnOrder:    append([]prefs.Item(nil), snap.AnnOrder...),
		SnapshotGen: snap.Gen,
	})
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	jobs := s.jobs.list()
	out := make([]map[string]any, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.view())
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	// Decide and act under the job lock: finish() also takes it, so a job
	// completing concurrently either lands before the check (the cancel is a
	// 409 carrying the terminal state and result) or after the cancel signal
	// (the context is already cancelled when the runner next checks). The
	// unlocked check-then-cancel this replaces could report "cancelling" for
	// a job that had already published its campaign.
	j.mu.Lock()
	state, errMsg, result := j.state, j.errMsg, j.result
	if state == jobRunning {
		j.cancel()
		j.mu.Unlock()
		writeJSON(w, http.StatusOK, map[string]any{"id": j.id, "cancelling": true})
		return
	}
	j.mu.Unlock()
	body := map[string]any{
		"error": fmt.Sprintf("job %s is %s, not running", j.id, state),
		"id":    j.id,
		"state": state,
	}
	if errMsg != "" {
		body["job_error"] = errMsg
	}
	if result != nil {
		body["result"] = result
	}
	writeJSON(w, http.StatusConflict, body)
}
