// Stability reproduces the §6 "Stability Analysis": deploy the
// AnyOpt-optimized configuration, then re-measure it weekly while the
// Internet drifts underneath (routing-policy churn, router swaps, carrier
// path changes). The paper's three-week January 2021 study found >90% of
// catchments unchanged and a stable mean RTT; this example runs the same
// protocol against simulated churn.
//
//	go run ./examples/stability
package main

import (
	"fmt"
	"log"
	"time"

	"anyopt"
	"anyopt/internal/core/predict"
	"anyopt/internal/topology"
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
	opt, err := sys.CurrentSnapshot().Optimize(12, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployed configuration: %v (predicted mean %v)\n",
		opt.Config, opt.PredictedMean.Round(100*time.Microsecond))

	// Each week is its own deployment: churn mutates the topology in between.
	deployed := []anyopt.Config{opt.Config}
	base := sys.MeasureConfigurations(deployed)[0]
	mean0, _ := predict.MeasuredMeanRTT(base.RTTs)
	fmt.Printf("week 0: %d catchments measured, mean RTT %.1fms\n",
		len(base.Catchments), ms(mean0))

	// Weekly churn: a few percent of ASes change policy or hardware, a few
	// links drift.
	const churnPerWeek = 0.04
	for week := 1; week <= 3; week++ {
		st := topology.Churn(sys.Topo, churnPerWeek, int64(week))
		now := sys.MeasureConfigurations(deployed)[0]

		same, n := 0, 0
		for c, s0 := range base.Catchments {
			if s1, ok := now.Catchments[c]; ok {
				n++
				if s0 == s1 {
					same++
				}
			}
		}
		mean, _ := predict.MeasuredMeanRTT(now.RTTs)
		fmt.Printf("week %d: churn {policy:%d routers:%d links:%d} → %.1f%% catchments unchanged, mean RTT %.1fms\n",
			week, st.PolicyChanges, st.RouterSwaps, st.DelayShifts,
			100*float64(same)/float64(n), ms(mean))
	}
	fmt.Println("\npaper (§6): >90% of catchments unchanged and stable mean RTT over three weeks")
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
