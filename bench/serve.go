package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"time"

	"anyopt"
	"anyopt/internal/api"
	"anyopt/internal/exec"
)

const (
	// setups is how often serve_mixed and churn_heal repeat their set-up
	// (system, seed campaign, server) so setup_s is a median, not one draw.
	setups = 3
	// requestBlock requests hold exactly one optimize: every prefix of a
	// client's list keeps the 80/20 mix, so a run that ends early or late
	// measures the same mix.
	requestBlock = 5
	// requestListLen is far more than a client sends in any budget; a client
	// that does exhaust its list starts over.
	requestListLen = 4000
	// warmupRequests per client, a whole number of blocks, are sent before
	// the measured section.
	warmupRequests = 20
	// optimizeBudget caps subset enumeration below C(15,k) for every k the
	// list uses, so an optimize request costs the same whatever k it draws.
	optimizeBudget = 2000
	// verifiedRequests are client 0's first measured requests — 25 blocks,
	// so 100 predicts and 25 optimizes — whose response bodies are recomputed
	// through the Snapshot after timing.
	verifiedRequests = 25 * requestBlock
)

// request is one generated API call.
type request struct {
	optimize bool
	config   anyopt.Config // predict: sites in announcement order
	k        int           // optimize: exact configuration size
}

// class names the request's endpoint, as spans and reports do.
func (q request) class() string {
	if q.optimize {
		return "api.optimize"
	}
	return "api.predict"
}

func (q request) url() string {
	if q.optimize {
		return fmt.Sprintf("/v1/optimize?k=%d&budget=%d", q.k, optimizeBudget)
	}
	ids := make([]string, len(q.config))
	for i, id := range q.config {
		ids[i] = strconv.Itoa(id)
	}
	return "/v1/predict?config=" + strings.Join(ids, ",")
}

// requestList generates client's requests: a pure function of (seed,
// client, n, sites). 80% predict a configuration of 3 to 12 random sites in
// random order, 20% optimize for k in 5..10.
func requestList(seed int64, client, n, sites int) []request {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(client)))
	out := make([]request, n)
	for i := range out {
		if i%requestBlock == 0 {
			out[min(i+rng.Intn(requestBlock), n-1)].optimize = true
		}
	}
	for i := range out {
		if out[i].optimize {
			out[i].k = 5 + rng.Intn(6)
			continue
		}
		k := 3 + rng.Intn(10)
		cfg := make(anyopt.Config, k)
		for j, s := range rng.Perm(sites)[:k] {
			cfg[j] = s + 1
		}
		out[i].config = cfg
	}
	return out
}

// served is one client's view of a closed loop: latencies by class and the
// first bodies, kept for verification.
type served struct {
	predictMS, optimizeMS []float64
	bad                   []string // one line per response that is not a well-formed 200
	requests              []request
	bodies                [][]byte
}

// call sends one request straight into the handler — no socket, no
// loopback — and returns status, body and the handler's latency.
func call(h http.Handler, method, url, body string) (int, []byte, time.Duration) {
	req := httptest.NewRequest(method, url, strings.NewReader(body))
	rec := httptest.NewRecorder()
	t := time.Now()
	h.ServeHTTP(rec, req)
	d := time.Since(t)
	return rec.Code, rec.Body.Bytes(), d
}

// closedLoop sends list[from:] one request at a time, the next only after
// the previous reply, for as long as more(requests sent) holds. keep bounds
// how many (request, body) pairs are retained. A non-nil tr records one span
// per request under parent.
func closedLoop(h http.Handler, list []request, from, keep int, more func(sent int) bool, tr *tracer, parent int) served {
	var s served
	for i := 0; more(i); i++ {
		q := list[(from+i)%len(list)]
		span := 0
		if tr != nil {
			span = tr.start(parent, q.class())
		}
		code, body, d := call(h, http.MethodGet, q.url(), "")
		if tr != nil {
			tr.end(span)
		}
		if code != http.StatusOK || !json.Valid(body) {
			s.bad = append(s.bad, fmt.Sprintf("%s: status %d, body %.80q", q.url(), code, body))
		}
		if q.optimize {
			s.optimizeMS = append(s.optimizeMS, ms(d))
		} else {
			s.predictMS = append(s.predictMS, ms(d))
		}
		if len(s.requests) < keep {
			s.requests, s.bodies = append(s.requests, q), append(s.bodies, body)
		}
	}
	return s
}

// serving is a system with a finished campaign behind its HTTP handler.
type serving struct {
	sys     *anyopt.System
	handler http.Handler
}

// setUpServing builds system, seed campaign and server `setups` times,
// returning the last one and every set-up's duration.
func setUpServing(r *run) (*serving, []float64) {
	var (
		sv    *serving
		times []float64
	)
	for i := 0; i < setups; i++ {
		sv = nil // at most one system alive, as in a real daemon
		t := time.Now()
		sys, err := r.cfg.newSystem(false)
		if !r.check(err == nil, "building system: %v", err) {
			return nil, nil
		}
		err = sys.RunDiscovery()
		r.checkCampaign(sys, err)
		if err != nil {
			return nil, nil
		}
		sv = &serving{sys: sys, handler: api.NewServer(sys).Handler()}
		times = append(times, time.Since(t).Seconds())
	}
	return sv, times
}

// driveClients runs one closed loop per request list, all at once, each from
// request `from` of its list while more holds, and returns every client's
// view. A non-nil tr records one span per client under parent and one per
// request under that.
func driveClients(h http.Handler, lists [][]request, from, keep int, more func(sent int) bool, tr *tracer, parent int) []served {
	out := make([]served, len(lists))
	exec.New(len(lists)).ForEach(len(lists), func(c int) {
		client := 0
		if tr != nil {
			client = tr.start(parent, "client "+strconv.Itoa(c))
			defer tr.end(client)
		}
		out[c] = closedLoop(h, lists[c], from, keep, more, tr, client)
	})
	return out
}

// mixed is what one mixedLoad measured.
type mixed struct {
	clients               []served
	predictMS, optimizeMS []float64 // pooled over the clients
	wall                  time.Duration
	allocMB               float64
}

// mixedLoad is the serve_mixed load: serveClients closed-loop clients send
// their seeded lists into the handler, warmupRequests each unmeasured, then
// for the given time. Every measured request counts as an operation.
func mixedLoad(r *run, sv *serving, length time.Duration, tr *tracer, parent int) mixed {
	lists := make([][]request, serveClients)
	for c := range lists {
		lists[c] = requestList(r.cfg.seed, c, requestListLen, len(sv.sys.TB.Sites))
	}
	driveClients(sv.handler, lists, 0, 0, func(sent int) bool { return sent < warmupRequests }, nil, 0)

	runtime.GC()
	m0 := memStats()
	t0 := time.Now()
	deadline := t0.Add(length)
	m := mixed{clients: driveClients(sv.handler, lists, warmupRequests, verifiedRequests,
		func(int) bool { return time.Now().Before(deadline) }, tr, parent)}
	m.wall = time.Since(t0)
	m.allocMB = float64(memStats().TotalAlloc-m0.TotalAlloc) / mb
	for _, s := range m.clients {
		m.predictMS = append(m.predictMS, s.predictMS...)
		m.optimizeMS = append(m.optimizeMS, s.optimizeMS...)
		r.operations(len(s.predictMS)+len(s.optimizeMS), s.bad)
	}
	return m
}

// runServe is the serve_mixed workload: two closed-loop clients sending the
// seeded 80/20 predict/optimize mix into the handler for the budget.
func runServe(r *run) {
	sv, setupS := setUpServing(r)
	if sv == nil {
		return
	}
	m := mixedLoad(r, sv, r.cfg.budget, nil, 0)
	r.cfg.logf("  in-process: requests go to api.NewServer(sys).Handler().ServeHTTP, no socket, no loopback; %d closed-loop clients", serveClients)
	logClass(r.cfg, "predict", m.predictMS)
	logClass(r.cfg, "optimize", m.optimizeMS)
	r.endToEnd(opStats{
		setupS:  setupS,
		latMS:   append(m.predictMS, m.optimizeMS...),
		wall:    m.wall,
		allocMB: m.allocMB,
		liveMB:  liveHeapMB(),
	})

	t := time.Now()
	verifyServed(r, sv.sys.CurrentSnapshot(), m.clients[0])
	r.cfg.logf("  verify_s %.2f (outside every metric)", time.Since(t).Seconds())
}

// logClass prints one request class's median and the highest tail its
// sample count supports.
func logClass(cfg config, class string, lat []float64) {
	line := fmt.Sprintf("  %-8s n=%-5d p50 %.3f ms", class, len(lat), median(lat))
	if p := supportedTail(len(lat)); p > 0 {
		line += fmt.Sprintf(", p%g %.3f ms", p, percentile(lat, p))
	}
	cfg.logf("%s", line)
}

// verifyServed recomputes the kept response bodies of one client through
// the Snapshot's own methods.
func verifyServed(r *run, snap *anyopt.Snapshot, s served) {
	for i, q := range s.requests {
		if q.optimize {
			verifyOptimize(r, snap, q, s.bodies[i])
		} else {
			verifyPredict(r, snap, q, s.bodies[i])
		}
	}
	r.cfg.logf("  recomputed the first %d response bodies of client 0", len(s.requests))
}

func verifyPredict(r *run, snap *anyopt.Snapshot, q request, body []byte) {
	var got struct {
		MeanRTT     float64        `json:"mean_rtt_ms"`
		Predictable int            `json:"predictable"`
		Catchments  map[string]int `json:"catchment_szs"`
	}
	if err := json.Unmarshal(body, &got); !r.check(err == nil, "%s: %v", q.url(), err) {
		return
	}
	mean, n := snap.PredictMeanRTT(q.config)
	sizes := map[string]int{}
	for _, site := range snap.PredictCatchments(q.config) { //lint:orderinvariant counting per site
		sizes[strconv.Itoa(site)]++
	}
	same := len(sizes) == len(got.Catchments)
	for site, size := range sizes { //lint:orderinvariant all entries must match
		same = same && got.Catchments[site] == size
	}
	r.check(same && got.Predictable == n && got.MeanRTT == float64(mean)/1e6,
		"%s: served (%.6f ms, %d predictable, %v), recomputed (%.6f ms, %d, %v)",
		q.url(), got.MeanRTT, got.Predictable, got.Catchments, float64(mean)/1e6, n, sizes)
}

func verifyOptimize(r *run, snap *anyopt.Snapshot, q request, body []byte) {
	var got struct {
		Config  anyopt.Config `json:"config"`
		Mean    float64       `json:"predicted_mean_ms"`
		Subsets int           `json:"subsets"`
		Clients int           `json:"orderable_clients"`
	}
	if err := json.Unmarshal(body, &got); !r.check(err == nil, "%s: %v", q.url(), err) {
		return
	}
	want, err := snap.Optimize(q.k, optimizeBudget)
	if !r.check(err == nil, "Optimize(%d): %v", q.k, err) {
		return
	}
	r.check(fmt.Sprint(got.Config) == fmt.Sprint(want.Config) && got.Subsets == want.SubsetsEvaluated &&
		got.Clients == want.OrderableClients && got.Mean == float64(want.PredictedMean)/1e6,
		"%s: served %+v, recomputed %+v", q.url(), got, want)
}
