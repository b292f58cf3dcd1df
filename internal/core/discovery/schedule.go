package discovery

import "anyopt/internal/testbed"

// CampaignExperiments returns the number of experiments RunDiscovery submits
// over tb — the length of the deterministic nonce schedule, and the
// denominator of a discovery job's progress. It mirrors the schedule exactly:
// one singleton RTT experiment per site, two order-controlled experiments per
// transit-provider pair, and (unless the RTT heuristic replaces them) one
// simultaneous experiment per site pair within each multi-site provider.
// Exact only for fault-free campaigns: quarantine under faults prunes
// representatives mid-schedule.
func CampaignExperiments(tb *testbed.Testbed, useRTTHeuristic bool) int {
	total := len(tb.Sites)
	providers := tb.TransitProviders()
	p := len(providers)
	total += p * (p - 1) // both orders of every provider pair
	if !useRTTHeuristic {
		for _, pASN := range providers {
			if s := len(tb.SitesOfTransit(pASN)); s >= 2 {
				total += s * (s - 1) / 2
			}
		}
	}
	return total
}

// Schedule estimates the wall-clock cost of a measurement campaign (§4.5
// "Analysis"): experiments spaced two hours apart, parallelized across test
// prefixes.
type Schedule struct {
	// SingletonExperiments is one per site (RTT measurement).
	SingletonExperiments int
	// PairwiseExperiments counts BGP pairwise runs (two per provider pair
	// when order-controlled).
	PairwiseExperiments int
	// ParallelPrefixes is the number of test prefixes usable concurrently.
	ParallelPrefixes int
	// SpacingHours separates successive experiments on one prefix.
	SpacingHours float64
}

// PlanTransitOnly builds the §4.5 schedule for a network with the given
// numbers of sites and transit providers, using order-controlled pairwise
// discovery at the provider level and the RTT heuristic at the site level.
func PlanTransitOnly(sites, providers, parallelPrefixes int, orderControlled bool) Schedule {
	pairs := providers * (providers - 1) / 2
	if orderControlled {
		pairs *= 2
	}
	if parallelPrefixes <= 0 {
		parallelPrefixes = 1
	}
	return Schedule{
		SingletonExperiments: sites,
		PairwiseExperiments:  pairs,
		ParallelPrefixes:     parallelPrefixes,
		SpacingHours:         2,
	}
}

// SingletonHours returns the wall-clock hours for the singleton phase.
func (s Schedule) SingletonHours() float64 {
	return float64(s.SingletonExperiments) * s.SpacingHours / float64(s.ParallelPrefixes)
}

// PairwiseHours returns the wall-clock hours for the pairwise phase.
func (s Schedule) PairwiseHours() float64 {
	return float64(s.PairwiseExperiments) * s.SpacingHours / float64(s.ParallelPrefixes)
}

// TotalDays returns the total campaign length in days.
func (s Schedule) TotalDays() float64 {
	return (s.SingletonHours() + s.PairwiseHours()) / 24
}
