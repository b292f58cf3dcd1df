package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

const mb = 1 << 20

// median returns the middle value of v (mean of the middle two for even n),
// or 0 for an empty slice. v is not modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of v:
// the smallest value with at least p% of the samples at or below it. With
// fewer than 100/(100-p) samples it is the maximum.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of percentile p among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9)) // the epsilon absorbs 99.9*n/100 rounding up
	return min(max(r, 1), n)
}

// tailLadder lists the percentiles the report may quote as a tail.
var tailLadder = []float64{99.9, 99, 98, 95, 90, 75}

// supportedTail returns the highest percentile of tailLadder that leaves at
// least ten of n samples beyond it, or 0 when none does: a tail quoted from
// fewer samples is mostly one scheduler hiccup.
func supportedTail(n int) float64 {
	for _, p := range tailLadder {
		if n-rank(n, p) >= 10 {
			return p
		}
	}
	return 0
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// liveHeapMB collects garbage and returns the heap still reachable. Callers
// keep the structures they are pricing alive across the call.
func liveHeapMB() float64 {
	runtime.GC()
	return float64(memStats().HeapAlloc) / mb
}
