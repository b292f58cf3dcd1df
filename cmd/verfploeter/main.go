// Command verfploeter maps the catchments of a deployed anycast
// configuration the way the measurement tool of §3.1 does: it probes every
// target with the anycast source address, attributes each reply to the site
// (and exact ingress link) it returned through, and prints per-site
// catchment sizes, RTT statistics, and a regional breakdown. The deployment
// is one discovery.Measure experiment with RTTs: the configuration's sites
// in announcement order, plus every peering link under -peers.
//
//	verfploeter -config 1,4,6
//	verfploeter -config 1,4,6 -peers        # also enable all peering links
//	verfploeter -scale paper -config 1,4,6  # full-size client population
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"strconv"
	"strings"
	"time"

	"anyopt/internal/analysis"
	"anyopt/internal/core/discovery"
	"anyopt/internal/core/prefs"
	"anyopt/internal/experiments"
	"anyopt/internal/geo"
	"anyopt/internal/topology"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("verfploeter: ")
	var (
		scale   = flag.String("scale", "test", "topology scale: test or paper")
		seed    = flag.Int64("seed", 1, "topology seed")
		cfgStr  = flag.String("config", "", "site IDs in announcement order (required)")
		peers   = flag.Bool("peers", false, "also announce every peering link")
		regions = flag.Bool("regions", true, "print the per-region breakdown")
	)
	flag.Parse()
	if *cfgStr == "" {
		log.Fatal("missing -config")
	}
	var cfg []int
	for _, part := range strings.Split(*cfgStr, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			log.Fatalf("bad site id %q", part)
		}
		cfg = append(cfg, id)
	}

	env, err := experiments.NewEnv(*scale, *seed)
	if err != nil {
		log.Fatal(err)
	}
	sys := env.Sys

	start := time.Now()
	dep := discovery.Deployment{Sites: cfg}
	if *peers {
		dep.Peers = sys.AllPeerLinks()
	}
	m := sys.Disc.Measure([]discovery.Deployment{dep}, true)[0]
	fmt.Printf("probed %d targets in %v (%d probes)\n",
		len(sys.Topo.Targets), time.Since(start).Round(time.Millisecond), sys.Disc.ProbesSent)

	// Per-site rollup.
	type roll struct {
		n       int
		viaPeer int
		rtts    []float64
		regions map[string]int
	}
	rolls := map[int]*roll{}
	var overall []float64
	clients := make([]prefs.Client, 0, len(m.Catchments))
	for c := range m.Catchments {
		clients = append(clients, c)
	}
	sort.Slice(clients, func(i, j int) bool { return clients[i] < clients[j] })
	for _, c := range clients {
		id := m.Catchments[c]
		r := rolls[id]
		if r == nil {
			r = &roll{regions: map[string]int{}}
			rolls[id] = r
		}
		r.n++
		if m.Links[c] != sys.TB.Site(id).TransitLink {
			r.viaPeer++
		}
		if rtt, ok := m.RTTs[c]; ok {
			ms := float64(rtt) / 1e6
			r.rtts = append(r.rtts, ms)
			overall = append(overall, ms)
		}
		r.regions[geo.RegionOf(sys.Topo.AS(topology.ASN(c)).Coord)]++
	}

	// Largest catchment first; equal catchments by site ID, so the row order
	// never depends on map iteration.
	ids := make([]int, 0, len(rolls))
	for id := range rolls {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if a, b := rolls[ids[i]].n, rolls[ids[j]].n; a != b {
			return a > b
		}
		return ids[i] < ids[j]
	})

	tab := analysis.NewTable(fmt.Sprintf("catchments for config %v (peers=%v)", cfg, *peers),
		"site", "name", "clients", "share %", "via peer", "median ms", "p90 ms")
	for _, id := range ids {
		r := rolls[id]
		tab.AddRow(id, sys.TB.Site(id).Name, r.n, 100*float64(r.n)/float64(len(m.Catchments)),
			r.viaPeer, analysis.Median(r.rtts), analysis.Percentile(r.rtts, 90))
	}
	fmt.Print(tab)
	fmt.Printf("overall: %d clients, median %.1f ms, mean %.1f ms, p90 %.1f ms\n",
		len(m.Catchments), analysis.Median(overall), analysis.Mean(overall), analysis.Percentile(overall, 90))

	if *regions {
		fmt.Println()
		rtab := analysis.NewTable("regional breakdown (clients per site)", append([]string{"site"}, geo.Regions...)...)
		for _, id := range ids {
			cells := []any{fmt.Sprintf("%d %s", id, sys.TB.Site(id).Name)}
			for _, rn := range geo.Regions {
				cells = append(cells, rolls[id].regions[rn])
			}
			rtab.AddRow(cells...)
		}
		fmt.Print(rtab)
	}
}
