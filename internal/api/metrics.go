package api

// Prometheus text-format metrics, standard library only. All hot-path
// instrumentation is a handful of atomic adds: the endpoint table is frozen
// at construction, so recording a request takes no locks and adds nothing
// measurable to the lock-free read path it observes.

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// latencyBucketsSeconds are the histogram upper bounds, spanning
// microsecond-scale predictions to multi-minute discovery campaigns.
var latencyBucketsSeconds = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// statusClasses labels the request counters; index by status/100 - 1.
var statusClasses = []string{"1xx", "2xx", "3xx", "4xx", "5xx"}

// endpointStats is one endpoint's counters. Everything is atomic; the struct
// is never copied after construction.
type endpointStats struct {
	requests [5]atomic.Uint64
	buckets  []atomic.Uint64 // cumulative-at-export, per-bucket at record time
	count    atomic.Uint64
	sumNanos atomic.Uint64
}

func (e *endpointStats) record(status int, elapsed time.Duration) {
	class := status/100 - 1
	if class < 0 || class >= len(e.requests) {
		class = 4
	}
	e.requests[class].Add(1)
	e.count.Add(1)
	e.sumNanos.Add(uint64(elapsed.Nanoseconds()))
	secs := elapsed.Seconds()
	for i, ub := range latencyBucketsSeconds {
		if secs <= ub {
			e.buckets[i].Add(1)
			return
		}
	}
	// Above every bound: counted only in count (the +Inf bucket at export).
}

// metrics holds per-endpoint stats plus hooks into the server's other
// subsystems, rendered on GET /metrics.
type metrics struct {
	endpoints map[string]*endpointStats
	names     []string
}

func newMetrics() *metrics {
	m := &metrics{endpoints: make(map[string]*endpointStats)}
	for _, name := range []string{
		"testbed", "discover", "jobs", "predict", "measure",
		"optimize", "schedule", "campaign", "churn", "reconcile",
	} {
		m.endpoints[name] = &endpointStats{buckets: make([]atomic.Uint64, len(latencyBucketsSeconds))}
		m.names = append(m.names, name)
	}
	sort.Strings(m.names)
	return m
}

// statusRecorder captures the response status for instrumentation.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with request counting and latency recording.
func (m *metrics) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	stats := m.endpoints[name]
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(rec, r)
		stats.record(rec.status, time.Since(start))
	}
}

func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	fmt.Fprintf(w, "# HELP anyoptd_requests_total HTTP requests served, by endpoint and status class.\n")
	fmt.Fprintf(w, "# TYPE anyoptd_requests_total counter\n")
	for _, name := range s.metrics.names {
		e := s.metrics.endpoints[name]
		for i, class := range statusClasses {
			if n := e.requests[i].Load(); n > 0 {
				fmt.Fprintf(w, "anyoptd_requests_total{endpoint=%q,code=%q} %d\n", name, class, n)
			}
		}
	}

	fmt.Fprintf(w, "# HELP anyoptd_request_duration_seconds Request latency, by endpoint.\n")
	fmt.Fprintf(w, "# TYPE anyoptd_request_duration_seconds histogram\n")
	for _, name := range s.metrics.names {
		e := s.metrics.endpoints[name]
		count := e.count.Load()
		if count == 0 {
			continue
		}
		var cum uint64
		for i, ub := range latencyBucketsSeconds {
			cum += e.buckets[i].Load()
			fmt.Fprintf(w, "anyoptd_request_duration_seconds_bucket{endpoint=%q,le=%q} %d\n", name, ftoa(ub), cum)
		}
		fmt.Fprintf(w, "anyoptd_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", name, count)
		fmt.Fprintf(w, "anyoptd_request_duration_seconds_sum{endpoint=%q} %s\n", name, ftoa(float64(e.sumNanos.Load())/1e9))
		fmt.Fprintf(w, "anyoptd_request_duration_seconds_count{endpoint=%q} %d\n", name, count)
	}

	fmt.Fprintf(w, "# HELP anyoptd_snapshot_generation Publication number of the current campaign snapshot (0 = none).\n")
	fmt.Fprintf(w, "# TYPE anyoptd_snapshot_generation gauge\n")
	var gen uint64
	var experiments int
	if snap := s.sys.CurrentSnapshot(); snap != nil {
		gen, experiments = snap.Gen, snap.Experiments
	}
	fmt.Fprintf(w, "anyoptd_snapshot_generation %d\n", gen)
	fmt.Fprintf(w, "# HELP anyoptd_snapshot_experiments BGP experiments in the current campaign snapshot.\n")
	fmt.Fprintf(w, "# TYPE anyoptd_snapshot_experiments gauge\n")
	fmt.Fprintf(w, "anyoptd_snapshot_experiments %d\n", experiments)

	// Warm-simulator reuse, aggregated over the campaign session, every
	// measure session, and every discovery job's private session.
	hits, misses := s.sys.Disc.SimPoolStats()
	sh, sm := s.sessions.simPoolStats()
	hits += sh
	misses += sm
	for _, j := range s.jobs.list() {
		jh, jm := j.disc.SimPoolStats()
		hits += jh
		misses += jm
	}
	fmt.Fprintf(w, "# HELP anyoptd_sim_pool_acquires_total Simulator acquisitions, by warm-pool outcome.\n")
	fmt.Fprintf(w, "# TYPE anyoptd_sim_pool_acquires_total counter\n")
	fmt.Fprintf(w, "anyoptd_sim_pool_acquires_total{outcome=\"hit\"} %d\n", hits)
	fmt.Fprintf(w, "anyoptd_sim_pool_acquires_total{outcome=\"miss\"} %d\n", misses)

	created, idle := s.sessions.sessionCount()
	fmt.Fprintf(w, "# HELP anyoptd_measure_sessions Measure sessions ever created and currently idle.\n")
	fmt.Fprintf(w, "# TYPE anyoptd_measure_sessions gauge\n")
	fmt.Fprintf(w, "anyoptd_measure_sessions{state=\"created\"} %d\n", created)
	fmt.Fprintf(w, "anyoptd_measure_sessions{state=\"idle\"} %d\n", idle)

	counts := s.jobs.stateCounts()
	fmt.Fprintf(w, "# HELP anyoptd_discovery_jobs Discovery jobs, by state.\n")
	fmt.Fprintf(w, "# TYPE anyoptd_discovery_jobs gauge\n")
	for _, state := range []string{jobRunning, jobDone, jobFailed, jobCancelled} {
		fmt.Fprintf(w, "anyoptd_discovery_jobs{state=%q} %d\n", state, counts[state])
	}

	// Churn reconciler (DESIGN.md §13).
	health, stats := s.recHealthView()
	staleRows := 0
	if snap := s.sys.CurrentSnapshot(); snap != nil {
		staleRows = len(snap.StaleRows)
	}
	fmt.Fprintf(w, "# HELP anyoptd_reconcile_health Reconciler health state (0=fresh 1=reconciling 2=degraded 3=stale).\n")
	fmt.Fprintf(w, "# TYPE anyoptd_reconcile_health gauge\n")
	fmt.Fprintf(w, "anyoptd_reconcile_health %d\n", uint8(health))
	fmt.Fprintf(w, "# HELP anyoptd_stale_rows Served prediction rows still backed by pre-churn data.\n")
	fmt.Fprintf(w, "# TYPE anyoptd_stale_rows gauge\n")
	fmt.Fprintf(w, "anyoptd_stale_rows %d\n", staleRows)
	fmt.Fprintf(w, "# HELP anyoptd_cones_in_flight Cone repairs currently running.\n")
	fmt.Fprintf(w, "# TYPE anyoptd_cones_in_flight gauge\n")
	fmt.Fprintf(w, "anyoptd_cones_in_flight %d\n", stats["cones_in_flight"])
	fmt.Fprintf(w, "# HELP anyoptd_repairs_total Completed cone repair cycles, by outcome.\n")
	fmt.Fprintf(w, "# TYPE anyoptd_repairs_total counter\n")
	fmt.Fprintf(w, "anyoptd_repairs_total{outcome=\"ok\"} %d\n", stats["repairs"])
	fmt.Fprintf(w, "anyoptd_repairs_total{outcome=\"failed\"} %d\n", stats["repair_failures"])
	fmt.Fprintf(w, "# HELP anyoptd_repair_last_duration_seconds Wall-clock latency of the last successful cone repair.\n")
	fmt.Fprintf(w, "# TYPE anyoptd_repair_last_duration_seconds gauge\n")
	fmt.Fprintf(w, "anyoptd_repair_last_duration_seconds %s\n", ftoa(float64(stats["last_repair_ms"].(int64))/1e3))
	fmt.Fprintf(w, "# HELP anyoptd_quorum_retries_total Extra K-of-N experiment attempts spent by cone repairs.\n")
	fmt.Fprintf(w, "# TYPE anyoptd_quorum_retries_total counter\n")
	fmt.Fprintf(w, "anyoptd_quorum_retries_total %d\n", stats["quorum_retries"])
}
