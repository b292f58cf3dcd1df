// Maintenance plays out the operational scenario that motivates AnyOpt (§1:
// anycast management "requires expert knowledge and continuous intervention
// in response to BGP path changes, regular maintenance, or DDoS attacks"):
// a site's transit link goes down for maintenance, catchments shift, and the
// operator uses the saved measurement campaign to re-optimize the remaining
// sites offline — no new BGP experiments needed.
//
//	go run ./examples/maintenance
package main

import (
	"fmt"
	"log"
	"time"

	"anyopt"
	"anyopt/internal/bgp"
	"anyopt/internal/core/predict"
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

	// Deploy the 12-site optimum.
	snap := sys.CurrentSnapshot()
	opt, err := snap.Optimize(12, 0)
	if err != nil {
		log.Fatal(err)
	}
	sim := bgp.New(sys.Topo, bgp.DefaultConfig())
	dep := sys.TB.NewDeployment(sim, 0)
	dep.AnnounceSites(opt.Config...)
	before := sim.CatchmentMap(0, sys.Topo.Targets)
	fmt.Printf("deployed %v\n", opt.Config)

	// The busiest site goes into maintenance: its transit link fails.
	counts := map[int]int{}
	for _, link := range before {
		counts[sys.TB.SiteByLink(link).ID]++
	}
	busiest, busiestN := 0, 0
	for id, n := range counts {
		if n > busiestN {
			busiest, busiestN = id, n
		}
	}
	site := sys.TB.Site(busiest)
	fmt.Printf("maintenance: site %d (%s) with %d clients (%.0f%%) loses its transit link\n",
		busiest, site.Name, busiestN, 100*float64(busiestN)/float64(len(before)))

	sim.FailLink(site.TransitLink)
	sim.Converge()
	after := sim.CatchmentMap(0, sys.Topo.Targets)
	moved, lost := 0, 0
	for asn, link := range before {
		newLink, ok := after[asn]
		switch {
		case !ok:
			lost++
		case newLink != link:
			moved++
		}
	}
	fmt.Printf("after failover: %d clients moved, %d unreachable (BGP reconverged)\n", moved, lost)

	// Offline re-optimization over the remaining sites, straight from the
	// existing campaign — no new BGP experiments.
	reopt, err := snap.OptimizeWith(anyopt.OptimizeOptions{Exclude: []int{busiest}})
	if err != nil {
		log.Fatal(err)
	}
	bestCfg, bestMean := reopt.Config, reopt.PredictedMean
	fmt.Printf("re-optimized without site %d: %v (predicted mean %v)\n",
		busiest, bestCfg, bestMean.Round(100*time.Microsecond))

	// Deploy the replacement and compare measured means.
	deployed := sys.MeasureConfigurations([]anyopt.Config{withoutSite(opt.Config, busiest), bestCfg})
	oldMean, _ := predict.MeasuredMeanRTT(deployed[0].RTTs)
	newMean, _ := predict.MeasuredMeanRTT(deployed[1].RTTs)
	fmt.Printf("measured mean: degraded config %v vs re-optimized %v\n",
		oldMean.Round(100*time.Microsecond), newMean.Round(100*time.Microsecond))
	if newMean <= oldMean {
		fmt.Println("re-optimization recovered the maintenance loss without new measurements")
	}
}

func withoutSite(cfg anyopt.Config, id int) anyopt.Config {
	var out anyopt.Config
	for _, s := range cfg {
		if s != id {
			out = append(out, s)
		}
	}
	return out
}
