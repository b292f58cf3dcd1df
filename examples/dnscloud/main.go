// Dnscloud models the configuration problem that motivates AnyOpt (§2.2,
// §4.5): an authoritative-DNS anycast cloud in the style of Akamai DNS, with
// many more sites and transit providers than the 15-site testbed. At this
// scale intra-AS pairwise experiments are infeasible, so discovery uses the
// §4.3 RTT heuristic for site-level preferences, and the offline search is a
// branch-and-bound that proves its answer optimal without enumerating every
// subset.
//
// The example also prints the §4.5 measurement schedule for the paper's
// 500-site / 20-transit estimate of the production system.
//
//	go run ./examples/dnscloud
package main

import (
	"fmt"
	"log"

	"anyopt"
	"anyopt/internal/core/discovery"
	"anyopt/internal/core/predict"
	"anyopt/internal/testbed"
	"anyopt/internal/topology"
)

func main() {
	log.SetFlags(0)

	// A larger backbone: 12 tier-1 providers, deeper transit mesh.
	params := topology.TestParams()
	params.NumTier1 = 12
	params.NumTransit = 60
	params.NumStub = 500
	params.Seed = 11

	// An anycast cloud of 36 sites, three per provider, at that provider's
	// busiest PoPs, declared as a custom site plan.
	topo, err := topology.Generate(params)
	if err != nil {
		log.Fatal(err)
	}
	var sites []testbed.SiteSpec
	for _, t1 := range topo.Tier1s() {
		for p := 0; p < 3 && p < len(t1.PoPs); p++ {
			sites = append(sites, testbed.SiteSpec{
				City:    t1.PoPs[p].City,
				Transit: t1.Name,
				Peers:   0, // transit-only cloud
			})
		}
	}

	opts := anyopt.Options{
		Topology:        params,
		Testbed:         testbed.Options{Sites: sites, Seed: 11},
		Discovery:       discovery.DefaultConfig(),
		UseRTTHeuristic: true, // §4.3: no intra-AS experiments at this scale
	}
	sys, err := anyopt.New(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("anycast cloud: %d sites across %d transit providers\n",
		len(sys.TB.Sites), len(sys.TB.TransitProviders()))

	if err := sys.RunDiscovery(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("discovery: %d BGP experiments (vs %d for flat pairwise over %d sites)\n",
		sys.Experiments(), len(sites)*(len(sites)-1), len(sites))

	// Assign the cloud a delegation-set-sized subset: the 18 best sites.
	const k = 18
	snap := sys.CurrentSnapshot()
	opt, err := snap.Optimize(k, 0)
	if err != nil {
		log.Fatal(err)
	}
	greedy, err := snap.GreedyConfig(k)
	if err != nil {
		log.Fatal(err)
	}
	deployed := sys.MeasureConfigurations([]anyopt.Config{opt.Config, greedy})
	optMean, _ := predict.MeasuredMeanRTT(deployed[0].RTTs)
	gMean, _ := predict.MeasuredMeanRTT(deployed[1].RTTs)
	proof := "proven optimal"
	if !opt.Proven {
		proof = "not proven optimal"
	}
	fmt.Printf("best %d-site cloud (branch-and-bound, %s, predicted %v):\n  %v\n",
		k, proof, opt.PredictedMean.Round(100_000), siteNames(sys, opt.Config))
	fmt.Printf("measured mean RTT: anyopt %.1fms vs greedy %.1fms\n",
		float64(optMean)/1e6, float64(gMean)/1e6)

	// §4.5: the wall-clock schedule for the production-scale system.
	plan := discovery.PlanTransitOnly(500, 20, 4, true)
	fmt.Printf("\n§4.5 schedule for 500 sites / 20 transits / 4 parallel prefixes:\n")
	fmt.Printf("  %d singleton experiments → %.0f h (%.1f days)\n",
		plan.SingletonExperiments, plan.SingletonHours(), plan.SingletonHours()/24)
	fmt.Printf("  %d pairwise experiments  → %.0f h (%.1f days)\n",
		plan.PairwiseExperiments, plan.PairwiseHours(), plan.PairwiseHours()/24)
	fmt.Printf("  total ≈ %.1f days: feasible as a monthly campaign\n", plan.TotalDays())
}

func siteNames(sys *anyopt.System, cfg anyopt.Config) []string {
	out := make([]string, len(cfg))
	for i, id := range cfg {
		out[i] = sys.TB.Site(id).Name
	}
	return out
}
