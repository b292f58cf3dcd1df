package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"time"

	"anyopt"
	"anyopt/internal/campaign"
	"anyopt/internal/fault"
)

// Load shape shared by every workload: campaign workers and serving clients
// both equal the reference box's two vCPUs, never more, so the numbers
// describe the program and not the scheduler.
const (
	campaignWorkers = 2
	serveClients    = 2
)

// config is one benchmark invocation. base fixes the scale: the command
// always passes anyopt.PaperScaleOptions, the tests anyopt.DefaultOptions.
type config struct {
	seed   int64
	base   anyopt.Options
	budget time.Duration // length of the measured section
	tmp    string        // private directory for journals and span files
	log    io.Writer     // human-readable report
	tracer *tracer       // nil with tracing off
}

func (c config) logf(format string, args ...any) { fmt.Fprintf(c.log, format+"\n", args...) }

// options derives the seeded synthetic Internet: the seed drives topology,
// testbed peer selection, measurement noise and (for faulty) the fault plan.
func (c config) options(faulty bool) (anyopt.Options, error) {
	o := c.base
	o.Topology.Seed = c.seed
	o.Testbed.Seed = c.seed
	o.Discovery.NoiseSeed = c.seed
	o.Discovery.Workers = campaignWorkers
	if faulty {
		f, err := fault.Scenario("paper", c.seed)
		if err != nil {
			return o, err
		}
		o.Discovery.Faults = f
	}
	return o, nil
}

// newSystem builds a fresh fault-free or faulty system on the seeded world.
func (c config) newSystem(faulty bool) (*anyopt.System, error) {
	o, err := c.options(faulty)
	if err != nil {
		return nil, err
	}
	return anyopt.New(o)
}

// digest returns the SHA-256 of the system's campaign.Save output, the
// canonical serialization the repo's byte-identity tests compare.
func digest(sys *anyopt.System) (string, error) {
	var buf bytes.Buffer
	if err := campaign.Save(&buf, sys); err != nil {
		return "", err
	}
	return hashHex(buf.Bytes()), nil
}

func hashHex(data []byte) string {
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run accumulates one workload's operations, checks and metrics.
type run struct {
	cfg       config
	attempted int
	failed    int
	metrics   map[string]metric
}

func newRun(cfg config) *run { return &run{cfg: cfg, metrics: map[string]metric{}} }

// check counts one attempted operation or correctness check; a false ok is a
// failure, reported with the given message.
func (r *run) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		r.cfg.logf("FAIL: "+format, args...)
	}
	return ok
}

// operations counts n attempted operations of which one failed per line.
func (r *run) operations(n int, failures []string) {
	r.attempted += n
	r.failed += len(failures)
	for _, line := range failures {
		r.cfg.logf("FAIL: %s", line)
	}
}

func (r *run) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *run) result() result {
	return result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
}

// metricDef declares an end-to-end metric: what BENCHMARK.json records and
// what -compare enforces.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64
}

// endToEnd lists the metrics every workload reports with tracing off. "op"
// is the workload's own operation: one RunDiscovery (campaign_paper,
// campaign_faulty), one HTTP request of the 80/20 mix (serve_mixed), one
// synchronous churn heal (churn_heal).
var endToEnd = []metricDef{
	{"op_p50_ms", "ms", "lower", 0.15},
	{"ops_per_s", "1/s", "higher", 0.15},
	{"alloc_mb_per_op", "MB", "lower", 0.10},
	{"live_mb", "MB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// opStats is what a workload's measured section yields.
type opStats struct {
	setupS  []float64     // one sample per set-up
	latMS   []float64     // one sample per measured operation
	wall    time.Duration // wall-clock of the measured section, set-up excluded
	allocMB float64       // bytes allocated by the measured operations
	liveMB  float64       // heap still live after the section, system retained
}

// endToEnd turns the measured section into the declared end-to-end metrics.
func (r *run) endToEnd(s opStats) {
	n := float64(len(s.latMS))
	values := map[string]float64{
		"op_p50_ms":       median(s.latMS),
		"ops_per_s":       n / s.wall.Seconds(),
		"alloc_mb_per_op": s.allocMB / n,
		"live_mb":         s.liveMB,
		"setup_s":         median(s.setupS),
	}
	for _, d := range endToEnd {
		r.set(d.Name, d.Unit, values[d.Name])
		r.cfg.logf("  %-16s %12.4f %-4s", d.Name, values[d.Name], d.Unit)
	}
	r.cfg.logf("  (n=%d operations in %.2fs measured, %d set-ups; failed %d of %d attempted)",
		len(s.latMS), s.wall.Seconds(), len(s.setupS), r.failed, r.attempted)
}
