// Loadbalance demonstrates the Appendix B extension of the optimization
// model: minimizing latency *subject to per-site load caps*. Each client
// carries a demand (here: heavier in a few metro regions, as real query
// volume is), popular sites get capacity limits, and the optimizer must
// find the lowest-latency configuration that still balances the load.
//
//	go run ./examples/loadbalance
package main

import (
	"fmt"
	"log"
	"sort"

	"anyopt"
)

func main() {
	log.SetFlags(0)

	sys, err := anyopt.New(anyopt.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.RunDiscovery(); err != nil {
		log.Fatal(err)
	}

	// Demand model: clients in the northern hemisphere's busy band
	// (30°–60°N) generate 4× the query volume.
	loads := map[anyopt.Client]float64{}
	var total float64
	for _, tg := range sys.Topo.Targets {
		l := 1.0
		if as := sys.Topo.AS(tg.AS); as.Coord.Lat > 30 && as.Coord.Lat < 60 {
			l = 4
		}
		loads[anyopt.Client(tg.AS)] = l
		total += l
	}
	fmt.Printf("total demand %.0f across %d clients\n", total, len(loads))

	// Unconstrained optimum concentrates load on popular sites.
	const k = 8
	snap := sys.CurrentSnapshot()
	free, err := snap.OptimizeWith(anyopt.OptimizeOptions{K: k, Loads: loads})
	if err != nil {
		log.Fatal(err)
	}
	freeLoads := snap.PredictSiteLoads(free.Config, loads)
	fmt.Printf("\nunconstrained optimum %v (predicted mean %v)\n", free.Config, free.PredictedMean.Round(100_000))
	printLoads(sys, freeLoads)

	// Tighten a uniform per-site cap until the problem becomes infeasible:
	// load is shaped by client preferences, not assigned by the operator, so
	// below some point no subset of sites balances it.
	var capped anyopt.OptimizeResult
	capFrac := 0.0
	for _, frac := range []float64{0.34, 0.30, 0.26, 0.22, 0.18} {
		caps := map[int]float64{}
		for _, s := range sys.TB.Sites {
			caps[s.ID] = frac * total
		}
		res, err := snap.OptimizeWith(anyopt.OptimizeOptions{K: k, Loads: loads, Caps: caps})
		if err != nil {
			fmt.Printf("\ncap ≤%.0f%%: infeasible — no %d-site configuration balances the load that far\n", frac*100, k)
			break
		}
		capped, capFrac = res, frac
		fmt.Printf("\ncap ≤%.0f%%: optimum %v (predicted mean %v)\n",
			frac*100, res.Config, res.PredictedMean.Round(100_000))
	}
	if capFrac == 0 {
		log.Fatal("even the loosest cap was infeasible")
	}
	cappedLoads := snap.PredictSiteLoads(capped.Config, loads)
	printLoads(sys, cappedLoads)

	fmt.Printf("\nprice of balance: %+.1fms mean latency for a ≤%.0f%% per-site cap\n",
		float64(capped.PredictedMean-free.PredictedMean)/1e6, capFrac*100)
}

func printLoads(sys *anyopt.System, loads map[int]float64) {
	var ids []int
	var total float64
	for id, l := range loads {
		ids = append(ids, id)
		total += l
	}
	sort.Slice(ids, func(i, j int) bool { return loads[ids[i]] > loads[ids[j]] })
	for _, id := range ids {
		fmt.Printf("  site %2d %-22s %6.0f (%.0f%%)\n",
			id, sys.TB.Site(id).Name, loads[id], 100*loads[id]/total)
	}
}
