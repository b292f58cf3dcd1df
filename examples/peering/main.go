// Peering runs the §4.4 / §5.4 campaign: starting from the optimized
// transit-only configuration, probe each of the testbed's settlement-free
// peering links one at a time, identify the beneficial ones, and compare
// three deployments — transit-only AnyOpt, AnyOpt plus the one-pass
// heuristic's beneficial peers, and AnyOpt plus all peers.
//
//	go run ./examples/peering
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"anyopt"
	"anyopt/internal/core/discovery"
	"anyopt/internal/core/predict"
)

func main() {
	log.SetFlags(0)

	sys, err := anyopt.New(anyopt.PaperScaleOptions())
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.RunDiscovery(); err != nil {
		log.Fatal(err)
	}

	// Transit-only optimum (12 sites, as in §5.3).
	opt, err := sys.CurrentSnapshot().Optimize(12, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("transit-only AnyOpt config: %v\n", opt.Config)

	// One-pass campaign over every peering link.
	peers := sys.AllPeerLinks()
	fmt.Printf("probing %d peering links one at a time...\n", len(peers))
	res := sys.OnePassPeering(opt.Config, peers)

	fmt.Printf("baseline mean RTT: %.1fms\n", ms(res.BaselineMean))
	fmt.Printf("reachable peers: %d/%d, beneficial: %d, included by one-pass: %d\n",
		res.ReachableCount(), len(peers), res.BeneficialCount(), len(res.Included))

	// Catchment-size distribution (Figure 7a's shape).
	sizes := make([]int, 0, len(res.Reports))
	for _, r := range res.Reports {
		sizes = append(sizes, len(r.Catchment))
	}
	sort.Ints(sizes)
	fmt.Printf("peer catchment sizes: median %d, p90 %d, max %d (of %d targets)\n",
		sizes[len(sizes)/2], sizes[len(sizes)*9/10], sizes[len(sizes)-1], len(sys.Topo.Targets))

	// Deploy the three configurations of Figure 7c.
	deployed := sys.Disc.Measure([]discovery.Deployment{
		{Sites: opt.Config, Peers: res.Included},
		{Sites: opt.Config, Peers: peers},
	}, true)
	benefit, _ := predict.MeasuredMeanRTT(deployed[0].RTTs)
	all, _ := predict.MeasuredMeanRTT(deployed[1].RTTs)
	fmt.Printf("\nFigure 7c comparison (mean client RTT):\n")
	fmt.Printf("  AnyOpt (transit only):     %.1fms\n", ms(res.BaselineMean))
	fmt.Printf("  AnyOpt + beneficial peers: %.1fms\n", ms(benefit))
	fmt.Printf("  AnyOpt + all peers:        %.1fms\n", ms(all))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
