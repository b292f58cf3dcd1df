// Quickstart: build the paper's 15-site testbed on a synthetic Internet, run
// the full AnyOpt discovery campaign, predict a configuration's catchments,
// and find the lowest-latency 12-site configuration.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"anyopt"
	"anyopt/internal/core/predict"
)

func main() {
	log.SetFlags(0)

	// 1. Synthetic Internet + Table 1 testbed (15 sites, 6 tier-1 transits,
	//    104 peering links).
	sys, err := anyopt.New(anyopt.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("topology: %v\n", sys.Topo.ComputeStats())
	fmt.Printf("testbed: %d sites, %d transit providers, %d peering links\n",
		len(sys.TB.Sites), len(sys.TB.TransitProviders()), sys.TB.PeerLinkCount())

	// 2. Discovery: singleton RTT experiments + order-controlled pairwise
	//    preference elicitation (§3, §4.3).
	if err := sys.RunDiscovery(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("discovery: %d BGP experiments, %d probes\n",
		sys.Experiments(), sys.Disc.ProbesSent)

	// 3. Predict a configuration and validate against a real deployment.
	cfg := anyopt.Config{1, 3, 4, 5, 6, 10} // one site per transit provider
	snap := sys.CurrentSnapshot()           // the finished campaign, immutable
	sw := snap.Pred.Sweep(cfg)              // every client's catchment, in one pass
	predMean, n := sw.MeanRTT()
	measured := sys.MeasureConfigurations([]anyopt.Config{cfg})[0]
	match, overlap := 0, 0
	for row, at := range sw.Catch {
		if at < 0 {
			continue // no predictable catchment
		}
		if m, ok := measured.Catchments[snap.Pred.Providers.ClientAt(row)]; ok {
			overlap++
			if sw.Sites[at] == m {
				match++
			}
		}
	}
	measMean, _ := predict.MeasuredMeanRTT(measured.RTTs)
	fmt.Printf("config %v:\n", cfg)
	fmt.Printf("  catchment prediction accuracy: %.1f%% over %d clients\n",
		100*float64(match)/float64(overlap), overlap)
	fmt.Printf("  mean RTT: predicted %v for %d clients, measured %.1fms\n",
		predMean.Round(100_000), n, ms(measMean))

	// 4. Offline optimization: best 12-site configuration (§5.3).
	opt, err := snap.Optimize(12, 0)
	if err != nil {
		log.Fatal(err)
	}
	greedy, err := snap.GreedyConfig(12)
	if err != nil {
		log.Fatal(err)
	}
	deployed := sys.MeasureConfigurations([]anyopt.Config{opt.Config, greedy})
	optMean, _ := predict.MeasuredMeanRTT(deployed[0].RTTs)
	greedyMean, _ := predict.MeasuredMeanRTT(deployed[1].RTTs)
	fmt.Printf("optimization over %d subsets, %d orderable clients:\n",
		opt.SubsetsEvaluated, opt.OrderableClients)
	fmt.Printf("  AnyOpt-12 %v → measured mean %.1fms\n", opt.Config, ms(optMean))
	fmt.Printf("  Greedy-12 %v → measured mean %.1fms\n", greedy, ms(greedyMean))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
