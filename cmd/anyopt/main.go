// Command anyopt drives the AnyOpt pipeline from the shell: discover client
// preferences on the simulated testbed, predict configurations, search for
// the lowest-latency configuration, and evaluate peering links.
//
//	anyopt table1                     show the testbed (Table 1)
//	anyopt discover                   run the measurement campaign, print a summary
//	anyopt predict -config 1,3,5      predict a configuration and validate it
//	anyopt optimize -k 12             offline search + baselines
//	anyopt peers -k 12 -max 30        one-pass peering evaluation
//
// Global flags (before the subcommand): -scale test|paper|internet, -seed N,
// -workers N (experiment parallelism; also via ANYOPT_WORKERS, default
// GOMAXPROCS — worker count never changes results, only wall-clock).
//
// Chaos and recovery: -faults none|paper|harsh injects deterministic
// transport faults into the campaign (seed from -fault-seed, default
// ANYOPT_FAULT_SEED or 1); -checkpoint FILE journals completed experiments
// so a killed discover run resumes where it left off. A campaign is one
// process at every scale, faults included; -workers is its parallelism.
//
// Profiling: -cpuprofile FILE and -memprofile FILE write stdlib pprof
// profiles for the run (heap profile taken after a final GC on exit).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"anyopt"
	"anyopt/internal/analysis"
	"anyopt/internal/bgp"
	"anyopt/internal/campaign"
	"anyopt/internal/core/predict"
	"anyopt/internal/experiments"
	"anyopt/internal/fault"
	"anyopt/internal/prof"
	"anyopt/internal/topology"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: anyopt [-scale test|paper|internet] [-seed N] [-workers N] [-faults SCENARIO] <command> [args]

commands:
  table1      print the testbed layout
  discover    run the full measurement campaign and summarize it
  predict     predict a configuration (-config 1,3,5) and validate by deployment
  optimize    find the best configuration (-k sites, 0 = any size; -budget subsets;
              -time-budget runs the branch-and-bound under a deadline)
  peers       one-pass peering evaluation on top of the optimum (-k, -max links)
  trace       explain a client's routing toward a configuration (-config, -client ASN)
  breakdown   count which BGP attribute decides each client's catchment (-config)
`)
	os.Exit(2)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("anyopt: ")
	scale := flag.String("scale", "test", "topology scale: test, paper, or internet")
	seed := flag.Int64("seed", 1, "topology seed")
	campaignFile := flag.String("campaign", "", "load discovery results from this snapshot instead of re-measuring")
	workers := flag.Int("workers", 0, "experiment executor workers (0 = ANYOPT_WORKERS or GOMAXPROCS)")
	faults := flag.String("faults", "none", "fault-injection scenario: none, paper, or harsh")
	faultSeed := flag.Int64("fault-seed", fault.SeedFromEnv(), "fault injection seed (default $"+fault.SeedEnv+" or 1)")
	checkpoint := flag.String("checkpoint", "", "journal completed experiments to this file; a rerun resumes from it")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
	}
	cmd, args := flag.Arg(0), flag.Args()[1:]

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			log.Print(err)
		}
	}()

	env, err := experiments.NewEnv(*scale, *seed)
	if err != nil {
		log.Fatal(err)
	}
	sys := env.Sys
	if *workers != 0 {
		sys.Disc.SetWorkers(*workers)
	}
	faultCfg, err := fault.Scenario(*faults, *faultSeed)
	if err != nil {
		log.Fatal(err)
	}
	sys.Disc.Cfg.Faults = faultCfg
	if path := *checkpoint; path != "" {
		ck, err := campaign.NewCheckpoint(path)
		if err != nil {
			log.Fatal(err)
		}
		if n := ck.Dropped(); n > 0 {
			fmt.Printf("checkpoint %s: dropped %d bytes of torn tail; what they held is measured again\n", path, n)
		}
		if n := ck.Len(); n > 0 {
			fmt.Printf("resuming: %d experiments already journaled in %s\n", n, path)
		}
		sys.Disc.SetJournal(ck)
	}
	if *campaignFile != "" {
		f, err := os.Open(*campaignFile)
		if err != nil {
			log.Fatal(err)
		}
		if err := campaign.Load(f, sys); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Printf("loaded campaign from %s\n", *campaignFile)
	}

	switch cmd {
	case "table1":
		fmt.Print(env.Table1())

	case "discover":
		fs := flag.NewFlagSet("discover", flag.ExitOnError)
		saveTo := fs.String("save", "", "write the campaign snapshot to this file")
		fs.Parse(args)
		start := time.Now()
		if err := env.Discover(); err != nil {
			log.Fatal(err)
		}
		if faultCfg.Enabled() {
			fmt.Printf("faults: scenario %q seed %d, %d events logged\n",
				*faults, *faultSeed, len(sys.Disc.FaultLog()))
			fmt.Printf("quorum retries %d, experiments settled by plurality %d\n",
				sys.Disc.QuorumRetries(), sys.Disc.PluralityExperiments())
			quarantined := sys.Disc.Quarantined()
			for _, id := range sys.Disc.QuarantinedSites() {
				fmt.Printf("  quarantined site %d: %s\n", id, quarantined[id])
			}
		}
		if *saveTo != "" {
			if err := campaign.SaveFile(*saveTo, sys); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("campaign saved to %s\n", *saveTo)
		}
		fmt.Printf("topology: %v\n", sys.Topo.ComputeStats())
		fmt.Printf("experiments: %d BGP runs, %d probes, %v wall time\n",
			sys.Experiments(), sys.Disc.ProbesSent, time.Since(start).Round(time.Millisecond))
		snap := sys.CurrentSnapshot()
		fmt.Printf("best announcement order: %v (%.1f%% of clients orderable)\n",
			snap.AnnOrder, 100*snap.Pred.Providers.FracWithTotalOrder(snap.AnnOrder))
		tab := analysis.NewTable("per-site mean unicast RTT", "site", "name", "mean RTT")
		for _, s := range sys.TB.Sites {
			tab.AddRow(s.ID, s.Name, snap.RTT.MeanUnicast(s.ID))
		}
		fmt.Print(tab)

	case "predict":
		fs := flag.NewFlagSet("predict", flag.ExitOnError)
		cfgStr := fs.String("config", "", "comma-separated site IDs in announcement order")
		fs.Parse(args)
		cfg, err := parseConfig(*cfgStr)
		if err != nil {
			log.Fatal(err)
		}
		if err := env.Discover(); err != nil {
			log.Fatal(err)
		}
		snap := sys.CurrentSnapshot()
		sw := snap.Pred.Sweep(cfg) // one sweep answers all three questions
		predicted := make(map[anyopt.Client]int, sw.Predicted)
		for row, at := range sw.Catch {
			if at >= 0 {
				predicted[snap.Pred.Providers.ClientAt(row)] = sw.Sites[at]
			}
		}
		predMean, n := sw.MeanRTT()
		measured := sys.MeasureConfigurations([]anyopt.Config{cfg})[0]
		acc, overlap := predict.Accuracy(predicted, measured.Catchments)
		measMean, _ := predict.MeasuredMeanRTT(measured.RTTs)
		fmt.Printf("config %v\n", cfg)
		fmt.Printf("  predictable clients: %d (%.1f%%)\n", n, 100*float64(sw.Predicted)/float64(len(sw.Catch)))
		fmt.Printf("  catchment accuracy vs deployment: %.1f%% over %d clients\n", 100*acc, overlap)
		fmt.Printf("  mean RTT: predicted %v, measured %v (rel err %.1f%%)\n",
			predMean.Round(10*time.Microsecond), measMean.Round(10*time.Microsecond),
			100*analysis.RelErr(float64(predMean), float64(measMean)))

	case "optimize":
		fs := flag.NewFlagSet("optimize", flag.ExitOnError)
		k := fs.Int("k", 12, "number of sites (0 = any size)")
		budget := fs.Int("budget", 0, "max subsets to evaluate (0 = all)")
		timeBudget := fs.Duration("time-budget", 0, "branch-and-bound wall-clock budget (0 = none)")
		fs.Parse(args)
		if err := env.Discover(); err != nil {
			log.Fatal(err)
		}
		snap := sys.CurrentSnapshot()
		opt, err := snap.OptimizeWith(anyopt.OptimizeOptions{
			K: *k, MaxSubsets: *budget, TimeBudget: *timeBudget,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("optimum: %v (predicted mean %v, %d subsets, %d orderable clients)\n",
			opt.Config, opt.PredictedMean.Round(10*time.Microsecond), opt.SubsetsEvaluated, opt.OrderableClients)
		switch {
		case opt.Proven:
			fmt.Println("proven optimal")
		case *timeBudget > 0:
			fmt.Println("not proven optimal: -time-budget cut the search short")
		default:
			fmt.Println("not proven optimal: -budget cut the enumeration short")
		}
		cfgs := []anyopt.Config{opt.Config}
		if *k > 0 {
			greedy, err := snap.GreedyConfig(*k)
			if err != nil {
				log.Fatal(err)
			}
			cfgs = append(cfgs, greedy)
		}
		measured := sys.MeasureConfigurations(cfgs)
		mean, _ := predict.MeasuredMeanRTT(measured[0].RTTs)
		fmt.Printf("deployed mean: %v\n", mean.Round(10*time.Microsecond))
		if *k > 0 {
			gm, _ := predict.MeasuredMeanRTT(measured[1].RTTs)
			fmt.Printf("greedy-%d baseline %v → deployed mean %v\n", *k, cfgs[1], gm.Round(10*time.Microsecond))
		}

	case "peers":
		fs := flag.NewFlagSet("peers", flag.ExitOnError)
		k := fs.Int("k", 12, "transit-only configuration size")
		max := fs.Int("max", 0, "probe only the first N peering links (0 = all)")
		fs.Parse(args)
		if err := env.Discover(); err != nil {
			log.Fatal(err)
		}
		opt, err := sys.CurrentSnapshot().Optimize(*k, 0)
		if err != nil {
			log.Fatal(err)
		}
		peers := sys.AllPeerLinks()
		if *max > 0 && *max < len(peers) {
			peers = peers[:*max]
		}
		res := sys.OnePassPeering(opt.Config, peers)
		fmt.Printf("base config %v, baseline mean %v\n", opt.Config, res.BaselineMean.Round(10*time.Microsecond))
		fmt.Printf("peers probed %d: reachable %d, beneficial %d, included %d\n",
			len(res.Reports), res.ReachableCount(), res.BeneficialCount(), len(res.Included))
		fmt.Printf("estimated mean with included peers: %v\n", res.EstimatedMean.Round(10*time.Microsecond))

	case "trace":
		fs := flag.NewFlagSet("trace", flag.ExitOnError)
		cfgStr := fs.String("config", "", "comma-separated site IDs in announcement order")
		clientASN := fs.Int64("client", 0, "client AS number (0 = first target)")
		fs.Parse(args)
		cfg, err := parseConfig(*cfgStr)
		if err != nil {
			log.Fatal(err)
		}
		sim, err := deploy(env, cfg)
		if err != nil {
			log.Fatal(err)
		}
		tg, err := pickTarget(env, *clientASN)
		if err != nil {
			log.Fatal(err)
		}
		exp, ok := sim.Explain(0, tg)
		if !ok {
			log.Fatalf("client AS%d has no route to the prefix", tg.AS)
		}
		site := sys.TB.SiteByLink(exp.EntryLink)
		fmt.Printf("catchment: site %d (%s)\n%s", site.ID, site.Name, exp)

	case "breakdown":
		fs := flag.NewFlagSet("breakdown", flag.ExitOnError)
		cfgStr := fs.String("config", "", "comma-separated site IDs in announcement order")
		fs.Parse(args)
		cfg, err := parseConfig(*cfgStr)
		if err != nil {
			log.Fatal(err)
		}
		sim, err := deploy(env, cfg)
		if err != nil {
			log.Fatal(err)
		}
		bd := sim.DecisiveBreakdown(0, sys.Topo.Targets)
		type row struct {
			step bgp.DecisionStep
			n    int
		}
		var rows []row
		total := 0
		for step, n := range bd {
			rows = append(rows, row{step, n})
			total += n
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].n > rows[j].n })
		fmt.Printf("decisive BGP attribute per client (config %v, %d clients):\n", cfg, total)
		for _, r := range rows {
			fmt.Printf("  %-28s %6d (%.1f%%)\n", r.step, r.n, 100*float64(r.n)/float64(total))
		}

	default:
		usage()
	}
}

// deploy announces cfg on a fresh simulation with the standard spacing.
func deploy(env *experiments.Env, cfg anyopt.Config) (*bgp.Sim, error) {
	if len(cfg) == 0 {
		return nil, fmt.Errorf("missing -config")
	}
	sim := bgp.New(env.Sys.Topo, bgp.DefaultConfig())
	dep := env.Sys.TB.NewDeployment(sim, 0)
	dep.AnnounceSites(cfg...)
	return sim, nil
}

// pickTarget resolves a client ASN (or the first target when 0).
func pickTarget(env *experiments.Env, asn int64) (topology.Target, error) {
	targets := env.Sys.Topo.Targets
	if asn == 0 {
		return targets[0], nil
	}
	for _, tg := range targets {
		if int64(tg.AS) == asn {
			return tg, nil
		}
	}
	return topology.Target{}, fmt.Errorf("AS%d is not a measurement target", asn)
}

func parseConfig(s string) (anyopt.Config, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("missing -config")
	}
	var cfg anyopt.Config
	for _, part := range strings.Split(s, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad site id %q", part)
		}
		cfg = append(cfg, id)
	}
	return cfg, nil
}
