// Command topogen generates a synthetic Internet topology, validates it, and
// either summarizes it or dumps it as JSON for inspection and external
// tooling.
//
//	topogen -scale test -seed 3           # summary
//	topogen -json > topo.json             # full dump
//	topogen -testbed                      # also deploy the Table 1 testbed
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"anyopt"
	"anyopt/internal/testbed"
	"anyopt/internal/topology"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("topogen: ")
	var (
		scale   = flag.String("scale", "test", "topology scale: test, paper, or internet")
		seed    = flag.Int64("seed", 1, "generation seed")
		asJSON  = flag.Bool("json", false, "dump the topology as JSON to stdout")
		withTB  = flag.Bool("testbed", false, "deploy the Table 1 testbed before reporting")
		load    = flag.String("load", "", "load a topology from this JSON file instead of generating")
		distPct = flag.Bool("degrees", false, "print the AS degree distribution")
	)
	flag.Parse()

	start := time.Now()
	var topo *topology.Topology
	if *load != "" {
		data, err := os.ReadFile(*load)
		if err != nil {
			log.Fatal(err)
		}
		topo, err = topology.ImportJSON(data)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		opts, err := anyopt.ScaleOptions(*scale)
		if err != nil {
			log.Fatal(err)
		}
		params := opts.Topology
		params.Seed = *seed
		topo, err = topology.Generate(params)
		if err != nil {
			log.Fatal(err)
		}
	}
	if *withTB {
		if _, err := testbed.New(topo, testbed.Options{Seed: *seed}); err != nil {
			log.Fatal(err)
		}
	}
	if err := topo.Validate(); err != nil {
		log.Fatalf("generated topology failed validation: %v", err)
	}

	if *asJSON {
		data, err := topo.ExportJSON()
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(data)
		os.Stdout.Write([]byte("\n"))
		return
	}

	fmt.Printf("ready in %v: %v\n", time.Since(start).Round(time.Millisecond), topo.ComputeStats())
	if *distPct {
		hist := map[int]int{}
		maxDeg := 0
		for _, a := range topo.ASes() {
			d := len(topo.LinksOf(a.ASN))
			hist[d]++
			if d > maxDeg {
				maxDeg = d
			}
		}
		fmt.Println("degree distribution:")
		for d := 1; d <= maxDeg; d++ {
			if hist[d] > 0 {
				fmt.Printf("  %3d: %d\n", d, hist[d])
			}
		}
	}
}
