package bgp

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// ConvergenceStats summarizes one converged routing state for a prefix.
type ConvergenceStats struct {
	// ReachableASes counts ASes holding a route.
	ReachableASes int
	// Routes counts Adj-RIB-In entries across all ASes (alternate paths
	// included).
	Routes int
	// PathLengths histograms best-path AS-path lengths.
	PathLengths map[int]int
	// TiedBest counts ASes whose candidate set (equal LOCAL_PREF and path
	// length) holds more than one route — the population whose selection
	// rests on the lower tie-break steps.
	TiedBest int
	// LastUpdate is the virtual time of the most recent best-route arrival,
	// a lower bound on when the network settled.
	LastUpdate time.Duration
}

// Stats computes convergence statistics for prefix p.
func (s *Sim) Stats(p PrefixID) ConvergenceStats {
	st := ConvergenceStats{PathLengths: map[int]int{}}
	ps := s.prefix(p)
	if ps == nil {
		return st
	}
	for i := range ps.ribs {
		rib := &ps.ribs[i]
		for _, r := range rib.in {
			if r != nil {
				st.Routes++
			}
		}
		if rib.best == nil {
			continue
		}
		st.ReachableASes++
		st.PathLengths[rib.best.pathLen()]++
		if len(rib.candidates) > 1 {
			st.TiedBest++
		}
		if rib.best.arrival > st.LastUpdate {
			st.LastUpdate = rib.best.arrival
		}
	}
	return st
}

// String renders the stats compactly.
func (st ConvergenceStats) String() string {
	var lens []int
	for l := range st.PathLengths {
		lens = append(lens, l)
	}
	sort.Ints(lens)
	var b strings.Builder
	fmt.Fprintf(&b, "reachable=%d routes=%d tied=%d settled=%v lens=",
		st.ReachableASes, st.Routes, st.TiedBest, st.LastUpdate.Round(time.Millisecond))
	for i, l := range lens {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%d", l, st.PathLengths[l])
	}
	return b.String()
}
