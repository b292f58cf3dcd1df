// Command figures regenerates every table and figure of the paper's
// evaluation (§5) against the simulated testbed and prints them as text
// tables and CDF series.
//
//	go run ./cmd/figures                  # everything, test scale
//	go run ./cmd/figures -scale paper     # full-size client population
//	go run ./cmd/figures -scale internet  # ~100k ASes, far slower
//	go run ./cmd/figures -only fig6,fig7  # a subset
//	go run ./cmd/figures -faults paper -only fig4a,fig4b,fig4c  # Figure 4 under injected faults
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"anyopt/internal/experiments"
	"anyopt/internal/fault"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// run parses args and writes the requested figures to w.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	var (
		scale     = fs.String("scale", "test", "topology scale: test, paper, or internet")
		seed      = fs.Int64("seed", 1, "topology seed")
		only      = fs.String("only", "", "comma-separated subset: table1,fig4a,fig4b,fig4c,fig5,fig6,fig7,sec45,repstab,stability,ablations")
		configs   = fs.Int("configs", 38, "number of random configurations for Figure 5")
		churn     = fs.Float64("churn", 0.01, "inter-experiment churn fraction for Figure 5")
		k         = fs.Int("k", 12, "configuration size for Figures 6 and 7")
		faults    = fs.String("faults", "none", "fault-injection scenario: none, paper, or harsh")
		faultSeed = fs.Int64("fault-seed", fault.SeedFromEnv(), "fault injection seed (default $"+fault.SeedEnv+" or 1)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	faultCfg, err := fault.Scenario(*faults, *faultSeed)
	if err != nil {
		return err
	}

	want := map[string]bool{}
	if *only != "" {
		for _, f := range strings.Split(*only, ",") {
			want[strings.TrimSpace(f)] = true
		}
	}
	enabled := func(name string) bool { return len(want) == 0 || want[name] }

	env, err := experiments.NewEnv(*scale, *seed)
	if err != nil {
		return err
	}
	env.Sys.Disc.Cfg.Faults = faultCfg
	fmt.Fprintf(w, "# AnyOpt evaluation — scale=%s seed=%d\n", *scale, *seed)
	fmt.Fprintf(w, "# topology: %v\n\n", env.Sys.Topo.ComputeStats())

	sections := []struct {
		name   string
		render func() (string, error)
	}{
		{"table1", func() (string, error) { return env.Table1(), nil }},
		{"fig4a", func() (string, error) { return env.Fig4a().Render(), nil }},
		{"fig4b", func() (string, error) {
			r, err := env.Fig4b()
			return r.Render(), err
		}},
		{"fig4c", func() (string, error) {
			r, err := env.Fig4c(nil)
			return r.Render(), err
		}},
		{"fig5", func() (string, error) {
			r, err := env.Fig5(*configs, *churn)
			return r.Render(), err
		}},
		{"fig6", func() (string, error) {
			r, err := env.Fig6(*k)
			return r.Render(), err
		}},
		{"fig7", func() (string, error) {
			r, err := env.Fig7(*k)
			return r.Render(), err
		}},
		{"sec45", func() (string, error) { return experiments.Sec45Schedule(), nil }},
		{"repstab", func() (string, error) {
			r, err := env.RepresentativeStability()
			return r.Render(), err
		}},
		{"stability", func() (string, error) {
			r, err := env.Stability(*k, 3, 0.04)
			return r.Render(), err
		}},
		{"ablations", func() (string, error) {
			var b strings.Builder
			a1, err := env.AblationArrivalOrder()
			if err != nil {
				return "", err
			}
			b.WriteString(a1.Render())
			b.WriteString(env.AblationTwoLevel().Render())
			a3, err := env.AblationRTTHeuristic()
			if err != nil {
				return "", err
			}
			b.WriteString(a3.Render())
			a4, err := env.AblationSolvers(6)
			if err != nil {
				return "", err
			}
			b.WriteString(a4.Render())
			return b.String(), nil
		}},
	}
	for _, s := range sections {
		if !enabled(s.name) {
			continue
		}
		start := time.Now()
		out, err := s.render()
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		fmt.Fprintln(w, out)
		fmt.Fprintf(w, "[%s completed in %v, %d experiments total]\n\n", s.name, time.Since(start).Round(time.Millisecond), env.Sys.Experiments())
	}
	if err := env.Sys.Disc.Err(); err != nil {
		return err
	}
	if faultCfg.Enabled() {
		fmt.Fprintf(w, "faults: scenario %q seed %d, %d events logged, %d sites quarantined\n",
			*faults, *faultSeed, len(env.Sys.Disc.FaultLog()), len(env.Sys.Disc.QuarantinedSites()))
	}
	return nil
}
