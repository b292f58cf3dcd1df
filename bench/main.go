// Command bench is the repository's one layered benchmark: four workloads on
// a seeded synthetic Internet, each reporting the same end-to-end metrics
// with tracing off and, in a separate traced pass, the per-module numbers
// behind them. BENCHMARK.json declares the contract; README.md in this
// directory is the vocabulary and the metric-interaction list.
//
//	bash bench/run.sh --workload serve_mixed --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --workload all --trace 1 --trace-out spans.json
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"anyopt"
)

// workloads are the benchmark's four names, in report order.
var workloads = []string{"campaign_paper", "campaign_faulty", "serve_mixed", "churn_heal"}

// runWorkload runs one workload, untraced (end-to-end metrics) or traced
// (per-layer metrics).
func runWorkload(cfg config, name string) result {
	r := newRun(cfg)
	cfg.logf("%s (seed %d, %d campaign workers, tracing %v)", name, cfg.seed, campaignWorkers, cfg.tracer != nil)
	t := time.Now()
	switch {
	case cfg.tracer != nil:
		runTraced(r, name)
	case name == "campaign_paper":
		runCampaign(r, false)
	case name == "campaign_faulty":
		runCampaign(r, true)
	case name == "serve_mixed":
		runServe(r)
	case name == "churn_heal":
		runChurn(r)
	}
	cfg.logf("  %s took %.1fs", name, time.Since(t).Seconds())
	return r.result()
}

func main() {
	workload := flag.String("workload", "all", "one of campaign_paper, campaign_faulty, serve_mixed, churn_heal, or all")
	seed := flag.Int64("seed", 1, "drives topology, testbed, noise, faults, churn plan and request list")
	seconds := flag.Int("seconds", 15, "length of each workload's measured section")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced pass, per-layer metrics")
	traceOut := flag.String("trace-out", "", "keep the traced pass's spans in this JSON file (default: a temporary file)")
	out := flag.String("out", "", "also write the results to this JSON file, the input of -compare")
	cmp := flag.Bool("compare", false, "compare two -out files: bench -compare a.json b.json")
	flag.Parse()

	if *cmp {
		if flag.NArg() != 2 {
			fatalf("usage: bench -compare a.json b.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloads
	} else if !slices.Contains(workloads, *workload) {
		fatalf("unknown workload %q", *workload)
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 || flag.NArg() != 0 {
		fatalf("bad arguments: seconds %d, trace %d, extra %v", *seconds, *trace, flag.Args())
	}

	tmp, err := os.MkdirTemp("", "anyopt-bench-")
	if err != nil {
		fatalf("%v", err)
	}
	cfg := config{
		seed:   *seed,
		base:   anyopt.PaperScaleOptions(),
		budget: time.Duration(*seconds) * time.Second,
		tmp:    tmp,
		log:    os.Stderr,
	}
	if *trace == 1 {
		cfg.tracer = newTracer()
	}
	results := map[string]result{}
	correct := true
	for _, name := range names {
		res := runWorkload(cfg, name)
		results[name] = res
		correct = correct && res.Correct
	}
	if cfg.tracer != nil {
		path := *traceOut
		if path == "" {
			path = filepath.Join(tmp, "spans.json")
		}
		size, err := cfg.tracer.write(path)
		if err != nil {
			fatalf("writing spans: %v", err)
		}
		cfg.logf("wrote %d spans, %d bytes, to %s", len(cfg.tracer.spans), size, path)
	}
	os.RemoveAll(tmp)

	// The last line of standard output is the result: one workload's object,
	// or for "all" one object per workload name.
	var doc any = results
	if len(names) == 1 {
		doc = results[names[0]]
	}
	line, err := json.Marshal(doc)
	if err != nil {
		fatalf("%v", err)
	}
	if *out != "" {
		file, err := json.Marshal(results)
		if err == nil {
			err = os.WriteFile(*out, append(file, '\n'), 0o644)
		}
		if err != nil {
			fatalf("writing %s: %v", *out, err)
		}
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}
