package topology

import (
	"math/rand"
	"time"
)

// ChurnStats reports what a Churn pass touched.
type ChurnStats struct {
	// PolicyChanges counts ASes whose LOCAL_PREF deltas were re-rolled
	// (route-map edits, traffic-engineering changes).
	PolicyChanges int
	// RouterSwaps counts ASes whose router ID changed (hardware refresh),
	// shifting final-tiebreak outcomes.
	RouterSwaps int
	// DelayShifts counts links whose propagation delay drifted (path
	// changes inside carriers).
	DelayShifts int
}

// Churn perturbs the topology in place to model the Internet's routing drift
// over time (§6, "Stability Analysis"): each call represents roughly one
// re-measurement interval. frac controls the fraction of ASes/links touched.
// The perturbations change tie-break outcomes and some policy preferences
// without altering the graph structure, so catchments mostly — but not
// entirely — persist, matching the paper's observation that >90% of
// catchments were unchanged over three weeks.
func Churn(t *Topology, frac float64, seed int64) ChurnStats {
	rng := rand.New(rand.NewSource(seed ^ 0xc4012))
	var st ChurnStats
	for i, a := range t.ases {
		if a.Tier == TierOrigin {
			continue
		}
		if a.Tier != TierT1 && rng.Float64() < frac {
			// A policy change: the AS re-rolls its per-neighbor preference
			// deltas (half the time adopting traffic engineering afresh,
			// half the time dropping back to plain relationship-based
			// preferences).
			spread := t.Params.DeviantPrefSpread
			if spread <= 0 {
				spread = 2
			}
			if rng.Float64() < 0.5 {
				a.LocalPrefDelta = make(map[ASN]int)
				for _, l := range t.adj[i] {
					a.LocalPrefDelta[l.Other(a.ASN)] = rng.Intn(2*spread+1) - spread
				}
			} else {
				a.LocalPrefDelta = nil
			}
			st.PolicyChanges++
		}
		if rng.Float64() < frac/4 {
			a.RouterID = rng.Uint32()
			st.RouterSwaps++
		}
	}
	for _, l := range t.Links {
		if rng.Float64() < frac/4 {
			// Drift the delay by up to ±10%.
			d := float64(l.Delay) * (1 + (rng.Float64()-0.5)/5)
			if d < float64(100*time.Microsecond) {
				d = float64(100 * time.Microsecond)
			}
			l.Delay = time.Duration(d)
			st.DelayShifts++
		}
	}
	return st
}
