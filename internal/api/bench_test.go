package api

// Throughput micro-benchmarks for the lock-free read path on one shared
// campaign snapshot. Run with -cpu 8 to measure scaling.

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"anyopt"
)

var (
	benchSysOnce sync.Once
	benchSys     *anyopt.System
	benchSysErr  error
)

// benchSystem returns one shared discovered system: campaign discovery costs
// seconds, the benchmarks microseconds per op.
func benchSystem(b *testing.B) *anyopt.System {
	b.Helper()
	benchSysOnce.Do(func() {
		benchSys, benchSysErr = anyopt.New(anyopt.DefaultOptions())
		if benchSysErr == nil {
			benchSysErr = benchSys.RunDiscovery()
		}
	})
	if benchSysErr != nil {
		b.Fatal(benchSysErr)
	}
	return benchSys
}

const benchPredictURL = "/v1/predict?config=1,4,6,9,12"

func benchPredict(b *testing.B, h http.Handler) {
	b.Helper()
	// One warm-up request, and a reference body for cheap sanity checking.
	want := doRecorded(h, http.MethodGet, benchPredictURL).Body.String()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, benchPredictURL, nil))
			if rec.Code != http.StatusOK || rec.Body.Len() != len(want) {
				b.Errorf("predict: status %d body %s", rec.Code, rec.Body.String())
				return
			}
		}
	})
}

// BenchmarkPredictParallel drives the lock-free handler from GOMAXPROCS
// goroutines: every request loads the snapshot pointer and predicts with no
// shared mutable state, so throughput scales with cores.
func BenchmarkPredictParallel(b *testing.B) {
	benchPredict(b, NewServer(benchSystem(b)).Handler())
}

// BenchmarkOptimizeParallel exercises the heavier read path: a budgeted
// SPLPO search per request, still lock-free.
func BenchmarkOptimizeParallel(b *testing.B) {
	h := NewServer(benchSystem(b)).Handler()
	url := "/v1/optimize?k=6&budget=50"
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
			if rec.Code != http.StatusOK {
				b.Errorf("optimize: status %d", rec.Code)
				return
			}
		}
	})
}
