// Package api exposes an AnyOpt system over a JSON HTTP API, for operators
// who drive the pipeline from dashboards or scripts rather than the CLI.
//
// Endpoints (all JSON):
//
//	GET    /v1/testbed                     testbed layout (Table 1)
//	POST   /v1/discover                    start an async discovery job (?wait=1 blocks)
//	GET    /v1/jobs                        list discovery jobs
//	GET    /v1/jobs/{id}                   job progress / result
//	DELETE /v1/jobs/{id}                   cancel a running job
//	GET    /v1/predict?config=1,3,5        catchment + mean-RTT prediction
//	GET    /v1/measure?config=1,3,5        deploy and measure (ground truth)
//	GET    /v1/optimize?k=12&budget=0&exclude=2,7
//	GET    /v1/schedule?sites=500&providers=20&prefixes=4
//	GET    /v1/campaign                    export the campaign snapshot
//	POST   /v1/campaign                    import a campaign snapshot
//	POST   /v1/churn                       apply routing churn, queue cone repair (?sync=1 repairs inline)
//	GET    /v1/reconcile                   reconciler health / staleness / repair stats
//	GET    /metrics                        Prometheus text-format metrics
//
// Concurrency model (DESIGN.md §10, §13): the read path — predict, optimize,
// schedule, campaign export — takes no locks at all. Each request loads the
// current immutable campaign Snapshot from an atomic pointer and computes
// against it; measure requests additionally draw a private warm discovery
// session from a session pool. Writers (discovery jobs, campaign import, the
// churn reconciler) serialize among themselves on writeMu and publish a fresh
// snapshot atomically, so a long-running discovery never blocks a prediction.
// The live topology itself is mutable only under topoMu's write lock (churn
// application); every campaign that reads the topology — discovery jobs,
// measure sessions, cone repairs — holds its read lock (see reconcile.go).
package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"anyopt"
	"anyopt/internal/campaign"
	"anyopt/internal/core/discovery"
	"anyopt/internal/core/predict"
)

// Server wraps a System with HTTP handlers.
type Server struct {
	sys *anyopt.System

	// writeMu serializes campaign writers: discovery jobs, campaign imports,
	// and the churn reconciler's snapshot patches. Readers never touch it —
	// they go through sys.CurrentSnapshot().
	writeMu sync.Mutex

	// topoMu guards the live topology, which simulators otherwise read
	// lock-free: churn application write-locks it (quiescing every in-flight
	// campaign); discovery jobs, measure sessions, and cone repairs hold the
	// read lock while their simulations run.
	topoMu sync.RWMutex

	// rec is the churn reconciler's state (see reconcile.go).
	rec reconciler

	// sessions hands out warm per-request discovery sessions for /v1/measure.
	sessions *sessionPool

	// jobs tracks async discovery jobs.
	jobs jobRegistry

	// checkpointDir, when non-empty, enables ?checkpoint=name on discovery
	// jobs: the job journals completed experiments to that file and a re-run
	// after a crash resumes from it.
	checkpointDir string

	// metrics instruments every endpoint.
	metrics *metrics
}

// NewServer builds a server around sys.
func NewServer(sys *anyopt.System) *Server {
	return &Server{
		sys:      sys,
		sessions: newSessionPool(sys),
		metrics:  newMetrics(),
	}
}

// SetCheckpointDir enables discovery-job checkpointing under dir (see
// Server.checkpointDir). Call before serving.
func (s *Server) SetCheckpointDir(dir string) { s.checkpointDir = dir }

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern, name string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.metrics.instrument(name, h))
	}
	handle("GET /v1/testbed", "testbed", s.handleTestbed)
	handle("POST /v1/discover", "discover", s.handleDiscover)
	handle("GET /v1/jobs", "jobs", s.handleJobList)
	handle("GET /v1/jobs/{id}", "jobs", s.handleJobGet)
	handle("DELETE /v1/jobs/{id}", "jobs", s.handleJobCancel)
	handle("GET /v1/predict", "predict", s.handlePredict)
	handle("GET /v1/measure", "measure", s.handleMeasure)
	handle("GET /v1/optimize", "optimize", s.handleOptimize)
	handle("GET /v1/schedule", "schedule", s.handleSchedule)
	handle("GET /v1/campaign", "campaign", s.handleCampaignExport)
	handle("POST /v1/campaign", "campaign", s.handleCampaignImport)
	handle("POST /v1/churn", "churn", s.handleChurn)
	handle("GET /v1/reconcile", "reconcile", s.handleReconcileStatus)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// httpError is the error envelope.
type httpError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, httpError{Error: fmt.Sprintf(format, args...)})
}

// parseConfig reads and validates the config query parameter: well-formed
// integers naming distinct, existing sites. Garbage configurations are a 400
// at the door, never an input to prediction.
func (s *Server) parseConfig(r *http.Request) (anyopt.Config, error) {
	raw := r.URL.Query().Get("config")
	if raw == "" {
		return nil, fmt.Errorf("missing config parameter")
	}
	var cfg anyopt.Config
	for _, part := range strings.Split(raw, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad site id %q", part)
		}
		cfg = append(cfg, id)
	}
	if err := s.sys.ValidateConfig(cfg); err != nil {
		return nil, err
	}
	return cfg, nil
}

func intParam(r *http.Request, name string, def int) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("bad %s parameter %q", name, raw)
	}
	return v, nil
}

// snapshot returns the current campaign snapshot or writes the 409 that
// tells the client to run discovery first.
func (s *Server) snapshot(w http.ResponseWriter) (*anyopt.Snapshot, bool) {
	snap := s.sys.CurrentSnapshot()
	if snap == nil {
		writeErr(w, http.StatusConflict, "anyopt: RunDiscovery has not been executed")
		return nil, false
	}
	return snap, true
}

type siteJSON struct {
	ID        int     `json:"id"`
	City      string  `json:"city"`
	Transit   string  `json:"transit"`
	Peers     int     `json:"peers"`
	TunnelRTT float64 `json:"tunnel_rtt_ms"`
}

func (s *Server) handleTestbed(w http.ResponseWriter, r *http.Request) {
	sites := make([]siteJSON, 0, len(s.sys.TB.Sites))
	for _, site := range s.sys.TB.Sites {
		sites = append(sites, siteJSON{
			ID: site.ID, City: site.City, Transit: site.TransitName,
			Peers: len(site.PeerLinks), TunnelRTT: float64(site.TunnelRTT) / 1e6,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"sites":   sites,
		"targets": len(s.sys.Topo.Targets),
	})
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	cfg, err := s.parseConfig(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	snap, ok := s.snapshot(w)
	if !ok {
		return
	}
	body := predictResponse(snap, cfg)
	// Serving-quality annotations (DESIGN.md §13): the reconciler health
	// state and, when churn has outrun repair, exactly which client rows are
	// still backed by pre-churn data and from which generation.
	body.Health = s.recHealth().String()
	if n := len(snap.StaleRows); n > 0 {
		body.StaleRows = n
		body.StaleClients = staleClientsJSON(snap)
	}
	writeJSON(w, http.StatusOK, body)
}

// predictBody is the /v1/predict response. Its fields are declared in the
// order encoding/json sorts the keys of a map — the bodies were served from a
// map[string]any until the read side went to one sweep, and they are pinned
// byte for byte.
type predictBody struct {
	CatchmentSizes map[string]int    `json:"catchment_szs"`
	Config         anyopt.Config     `json:"config"`
	Health         string            `json:"health"`
	MeanRTTms      float64           `json:"mean_rtt_ms"`
	Predictable    int               `json:"predictable"`
	StaleClients   []staleClientJSON `json:"stale_clients,omitempty"`
	StaleRows      int               `json:"stale_rows,omitempty"`
}

// predictResponse computes the /v1/predict body against one snapshot, in one
// sweep; the handler adds the serving-quality annotations.
func predictResponse(snap *anyopt.Snapshot, cfg anyopt.Config) predictBody {
	sw := snap.Pred.Sweep(cfg)
	mean, n := sw.MeanRTT()
	perSite := make(map[string]int, len(sw.Sites))
	for at, site := range sw.Sites {
		if sw.Counts[at] > 0 {
			perSite[strconv.Itoa(site)] = sw.Counts[at]
		}
	}
	return predictBody{
		CatchmentSizes: perSite,
		Config:         cfg,
		MeanRTTms:      float64(mean) / 1e6,
		Predictable:    n,
	}
}

// staleClientJSON is one stale prediction row: the client AS and the snapshot
// generation whose campaign data it still reflects.
type staleClientJSON struct {
	Client int64  `json:"client"`
	Gen    uint64 `json:"gen"`
}

// staleClientsJSON lists the snapshot's stale rows in client order.
func staleClientsJSON(snap *anyopt.Snapshot) []staleClientJSON {
	out := make([]staleClientJSON, 0, len(snap.StaleRows))
	for c, g := range snap.StaleRows {
		out = append(out, staleClientJSON{Client: int64(c), Gen: g})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Client < out[j].Client })
	return out
}

func (s *Server) handleMeasure(w http.ResponseWriter, r *http.Request) {
	cfg, err := s.parseConfig(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The session's simulations read the live topology; hold the read lock so
	// churn application (which write-locks topoMu) quiesces us first.
	s.topoMu.RLock()
	sess := s.sessions.acquire()
	m := sess.Measure([]discovery.Deployment{{Sites: cfg}}, true)[0]
	s.sessions.release(sess)
	s.topoMu.RUnlock()
	mean, n := predict.MeasuredMeanRTT(m.RTTs)
	perSite := map[string]int{}
	for _, site := range m.Catchments {
		perSite[strconv.Itoa(site)]++
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"config":        cfg,
		"mean_rtt_ms":   float64(mean) / 1e6,
		"measured":      n,
		"catchment_szs": perSite,
	})
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	k, err := intParam(r, "k", 12)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	budget, err := intParam(r, "budget", 0)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	timeBudgetMs, err := intParam(r, "time_budget_ms", 0)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if timeBudgetMs < 0 {
		writeErr(w, http.StatusBadRequest, "time_budget_ms must be >= 0, got %d", timeBudgetMs)
		return
	}
	if k < 0 || budget < 0 {
		writeErr(w, http.StatusBadRequest, "k and budget must be >= 0")
		return
	}
	var exclude []int
	if raw := r.URL.Query().Get("exclude"); raw != "" {
		for _, part := range strings.Split(raw, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				writeErr(w, http.StatusBadRequest, "bad exclude id %q", part)
				return
			}
			exclude = append(exclude, id)
		}
	}
	snap, ok := s.snapshot(w)
	if !ok {
		return
	}
	body, err := optimizeResponse(snap, k, budget, timeBudgetMs, exclude)
	if err != nil {
		writeErr(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// optimizeBody is the /v1/optimize response, fields in sorted key order like
// predictBody's. proven is present exactly when a time budget was asked for,
// true or not: whether the answer is the optimum or the deadline cut the
// search short.
type optimizeBody struct {
	Config           anyopt.Config `json:"config"`
	OrderableClients int           `json:"orderable_clients"`
	PredictedMeanMs  float64       `json:"predicted_mean_ms"`
	Proven           *bool         `json:"proven,omitempty"`
	Subsets          int           `json:"subsets"`
}

// optimizeResponse computes the /v1/optimize body against one snapshot. Which
// solver answers is OptimizeWith's decision.
func optimizeResponse(snap *anyopt.Snapshot, k, budget, timeBudgetMs int, exclude []int) (optimizeBody, error) {
	res, err := snap.OptimizeWith(anyopt.OptimizeOptions{
		K:          k,
		MaxSubsets: budget,
		Exclude:    exclude,
		TimeBudget: time.Duration(timeBudgetMs) * time.Millisecond,
	})
	if err != nil {
		return optimizeBody{}, err
	}
	body := optimizeBody{
		Config:           res.Config,
		OrderableClients: res.OrderableClients,
		PredictedMeanMs:  float64(res.PredictedMean) / 1e6,
		Subsets:          res.SubsetsEvaluated,
	}
	if timeBudgetMs > 0 {
		body.Proven = &res.Proven
	}
	return body, nil
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	sites, err := intParam(r, "sites", 500)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	providers, err := intParam(r, "providers", 20)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	prefixes, err := intParam(r, "prefixes", 4)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	plan := discovery.PlanTransitOnly(sites, providers, prefixes, true)
	writeJSON(w, http.StatusOK, map[string]any{
		"singleton_experiments": plan.SingletonExperiments,
		"pairwise_experiments":  plan.PairwiseExperiments,
		"singleton_hours":       plan.SingletonHours(),
		"pairwise_hours":        plan.PairwiseHours(),
		"total_days":            plan.TotalDays(),
	})
}

func (s *Server) handleCampaignExport(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.snapshot(w)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := campaign.SaveSnapshot(w, snap); err != nil {
		writeErr(w, http.StatusConflict, "%v", err)
	}
}

func (s *Server) handleCampaignImport(w http.ResponseWriter, r *http.Request) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if err := campaign.Load(r.Body, s.sys); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"loaded": true})
}
