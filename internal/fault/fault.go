// Package fault is the single configuration point for deterministic fault
// injection across the simulated measurement infrastructure.
//
// AnyOpt's campaign assumes every announcement converges and every probe
// returns; Tangled and Anycast Agility show the production Internet violates
// both routinely. This package lets the simulator violate them on purpose —
// BGP session flaps and dropped or delayed UPDATEs at the bgp/netsim
// boundary, ICMP probe loss and whole-site blackouts in the measurement
// plane — so the self-healing machinery in internal/core/discovery (retries,
// K-of-N quorum, quarantine) can be exercised and regression-tested.
//
// Determinism contract: every fault decision flows from a seeded source
// derived from (Config.Seed, experiment nonce, attempt). Experiments run in
// parallel across internal/exec workers, so an Injector is built per
// experiment attempt and consumed single-threaded inside it; worker count and
// scheduling never reach a fault decision. The same seed replays the same
// failure trace, byte for byte — which is what makes the chaos differential
// test (Makefile `chaos`) a regression test rather than a dice roll.
//
// This package is deliberately free of effectors: it decides *what* fails and
// records it, while each boundary applies the decision (internal/bgp drops
// the update, internal/probe loses the packet, internal/core/discovery fails
// the links). It is also the only package on the simulated transport path
// that anyoptlint permits to own a seeded RNG — see internal/lint/policy.go.
package fault

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"time"

	"anyopt/internal/splitmix"
	"anyopt/internal/topology"
)

// SeedEnv names the environment variable that supplies the default fault
// seed for the command-line drivers (cmd/anyopt, cmd/figures).
const SeedEnv = "ANYOPT_FAULT_SEED"

// SeedFromEnv returns ANYOPT_FAULT_SEED when set to an integer, else 1.
func SeedFromEnv() int64 {
	if s := os.Getenv(SeedEnv); s != "" {
		if n, err := strconv.ParseInt(s, 10, 64); err == nil {
			return n
		}
	}
	return 1
}

// Config sets per-fault-class rates. The zero value (and a nil *Config)
// injects nothing; campaigns run byte-identical to a fault-free build.
type Config struct {
	// Seed is the root of every fault decision.
	Seed int64

	// FlapProb is the probability that one experiment suffers a burst of
	// BGP session flaps (links going down and coming back mid-convergence).
	FlapProb float64
	// FlapMaxLinks bounds how many links one burst takes down (default 1).
	FlapMaxLinks int
	// FlapWindow is the virtual-time window after the experiment starts in
	// which flaps begin (default 30 minutes, covering the spaced
	// announcement phase).
	FlapWindow time.Duration
	// FlapDownMin/Max bound how long a flapped session stays down
	// (defaults 30s / 5m).
	FlapDownMin, FlapDownMax time.Duration

	// UpdateDropProb is the per-delivery probability that a BGP UPDATE or
	// withdrawal is silently lost between two ASes.
	UpdateDropProb float64
	// UpdateDelayProb is the per-delivery probability of an extra queueing
	// delay of up to UpdateDelayMax (default 200ms) on an UPDATE.
	UpdateDelayProb float64
	UpdateDelayMax  time.Duration

	// ProbeLossProb is the per-traversal probability that a measurement
	// packet is lost, on top of the baseline NoiseModel loss.
	ProbeLossProb float64

	// BlackoutSites lists site IDs that are dead for the whole campaign:
	// their links never carry routes and their tunnels answer nothing. The
	// campaign must quarantine them and continue with the rest.
	BlackoutSites []int
}

// Enabled reports whether any fault class is active. A nil Config is
// disabled, so callers can thread a *Config through without nil checks.
func (c *Config) Enabled() bool {
	if c == nil {
		return false
	}
	return c.FlapProb > 0 || c.UpdateDropProb > 0 || c.UpdateDelayProb > 0 ||
		c.ProbeLossProb > 0 || len(c.BlackoutSites) > 0
}

// BlackedOut reports whether site id is in BlackoutSites. Nil-safe.
func (c *Config) BlackedOut(id int) bool {
	if c == nil {
		return false
	}
	for _, b := range c.BlackoutSites {
		if b == id {
			return true
		}
	}
	return false
}

// Scenario returns a preset configuration by name. "none" (or "") disables
// injection; "paper" models the degradation rates the measurement studies
// report for production anycast (rare flaps, sub-percent update loss, ~1%
// probe loss); "harsh" runs everything an order of magnitude hotter.
func Scenario(name string, seed int64) (*Config, error) {
	switch name {
	case "", "none":
		return nil, nil
	case "paper":
		return &Config{
			Seed:            seed,
			FlapProb:        0.08,
			FlapMaxLinks:    1,
			FlapWindow:      30 * time.Minute,
			FlapDownMin:     30 * time.Second,
			FlapDownMax:     5 * time.Minute,
			UpdateDropProb:  0.0005,
			UpdateDelayProb: 0.002,
			UpdateDelayMax:  200 * time.Millisecond,
			ProbeLossProb:   0.01,
		}, nil
	case "harsh":
		return &Config{
			Seed:            seed,
			FlapProb:        0.5,
			FlapMaxLinks:    3,
			FlapWindow:      45 * time.Minute,
			FlapDownMin:     10 * time.Second,
			FlapDownMax:     15 * time.Minute,
			UpdateDropProb:  0.005,
			UpdateDelayProb: 0.02,
			UpdateDelayMax:  time.Second,
			ProbeLossProb:   0.08,
		}, nil
	}
	return nil, fmt.Errorf("fault: unknown scenario %q (want none, paper, or harsh)", name)
}

// Trace accumulates a human-readable failure log for one experiment. It is
// written by the Injector from inside the (single-threaded) experiment, so it
// needs no locking; internal/core/discovery folds per-experiment traces into
// the campaign log in submission order, making the full log reproducible.
type Trace struct {
	entries []string
}

// Addf appends one formatted entry.
func (t *Trace) Addf(format string, args ...any) {
	if t == nil {
		return
	}
	t.entries = append(t.entries, fmt.Sprintf(format, args...))
}

// Append adds pre-formatted entries — used when replaying a checkpointed
// trace into a fresh campaign's log.
func (t *Trace) Append(lines ...string) {
	if t == nil || len(lines) == 0 {
		return
	}
	t.entries = append(t.entries, lines...)
}

// Entries returns the recorded log lines.
func (t *Trace) Entries() []string {
	if t == nil {
		return nil
	}
	return t.entries
}

// Flap is one planned session flap: the link goes down at DownAt and comes
// back at UpAt (virtual time from the experiment epoch).
type Flap struct {
	Link         topology.LinkID
	DownAt, UpAt time.Duration
}

// Injector makes fault decisions for one experiment attempt. All methods are
// safe on a nil receiver (no faults), so boundaries can hold an *Injector
// unconditionally.
//
// Each fault class draws from its own seeded stream, so e.g. probe-loss draws
// never shift BGP-drop draws when code between them changes. The probe-loss
// stream is rewound once per probed target, so it alone sits on the one-word
// keyed generator; the other two are seeded once per attempt.
type Injector struct {
	cfg     *Config
	nonce   uint64
	attempt int
	trace   *Trace

	update   *rand.Rand
	probe    *rand.Rand // over &probeSrc
	probeSrc splitmix.Source
	plan     *rand.Rand

	blackout map[int]bool
}

// classSalts separate the per-class streams.
const (
	saltUpdate = 0x75706474 // "updt"
	saltProbe  = 0x70726f62 // "prob"
	saltPlan   = 0x706c616e // "plan"
	saltChurn  = 0x63687572 // "chur"
)

// mix folds (seed, nonce, attempt, salt) into a 63-bit stream seed with a
// splitmix-style avalanche, so adjacent nonces and attempts land far apart.
func mix(seed int64, nonce uint64, attempt int, salt uint64) int64 {
	z := uint64(seed) ^ nonce*splitmix.Gamma ^ uint64(attempt+1)*0xbf58476d1ce4e5b9 ^ salt
	return int64(splitmix.Mix(z) >> 1)
}

// Injector builds the fault decider for one (experiment nonce, attempt)
// pair. Retried attempts keep the experiment's jitter nonce — the non-fault
// world replays exactly — while every fault stream re-rolls, which is what
// lets quorum voting converge on the fault-free outcome. Returns nil when the
// config is disabled.
func (c *Config) Injector(nonce uint64, attempt int, tr *Trace) *Injector {
	if !c.Enabled() {
		return nil
	}
	inj := &Injector{
		cfg:     c,
		nonce:   nonce,
		attempt: attempt,
		trace:   tr,
		update:  rand.New(rand.NewSource(mix(c.Seed, nonce, attempt, saltUpdate))),
		plan:    rand.New(rand.NewSource(mix(c.Seed, nonce, attempt, saltPlan))),
	}
	inj.probeSrc.Rekey(uint64(mix(c.Seed, nonce, attempt, saltProbe)))
	inj.probe = rand.New(&inj.probeSrc)
	if len(c.BlackoutSites) > 0 {
		inj.blackout = make(map[int]bool, len(c.BlackoutSites))
		for _, id := range c.BlackoutSites {
			inj.blackout[id] = true
		}
	}
	return inj
}

// UpdateFate decides the fate of one BGP update delivery: dropped, delayed by
// extra, or untouched. It implements the bgp.ChaosModel interface.
func (inj *Injector) UpdateFate(link topology.LinkID, dst topology.ASN, prefix int) (drop bool, extra time.Duration) {
	if inj == nil {
		return false, 0
	}
	if p := inj.cfg.UpdateDropProb; p > 0 && inj.update.Float64() < p {
		inj.trace.Addf("exp %d attempt %d: drop update link=%d dst=AS%d prefix=%d",
			inj.nonce, inj.attempt, link, dst, prefix)
		return true, 0
	}
	if p := inj.cfg.UpdateDelayProb; p > 0 && inj.update.Float64() < p {
		max := inj.cfg.UpdateDelayMax
		if max <= 0 {
			max = 200 * time.Millisecond
		}
		extra = time.Duration(inj.update.Int63n(int64(max)))
		inj.trace.Addf("exp %d attempt %d: delay update link=%d dst=AS%d prefix=%d extra=%v",
			inj.nonce, inj.attempt, link, dst, prefix, extra)
	}
	return false, extra
}

// FlapPlan draws this attempt's session-flap schedule over the candidate
// links (testbed-adjacent sessions; the caller excludes blacked-out sites'
// links so a flap's restore can never resurrect a dead site).
func (inj *Injector) FlapPlan(links []topology.LinkID) []Flap {
	if inj == nil || len(links) == 0 || inj.cfg.FlapProb <= 0 {
		return nil
	}
	if inj.plan.Float64() >= inj.cfg.FlapProb {
		return nil
	}
	maxLinks := inj.cfg.FlapMaxLinks
	if maxLinks <= 0 {
		maxLinks = 1
	}
	window := inj.cfg.FlapWindow
	if window <= 0 {
		window = 30 * time.Minute
	}
	downMin, downMax := inj.cfg.FlapDownMin, inj.cfg.FlapDownMax
	if downMin <= 0 {
		downMin = 30 * time.Second
	}
	if downMax < downMin {
		downMax = downMin
	}
	n := 1 + inj.plan.Intn(maxLinks)
	flaps := make([]Flap, 0, n)
	for i := 0; i < n; i++ {
		link := links[inj.plan.Intn(len(links))]
		down := time.Duration(inj.plan.Int63n(int64(window)))
		hold := downMin
		if span := downMax - downMin; span > 0 {
			hold += time.Duration(inj.plan.Int63n(int64(span)))
		}
		fl := Flap{Link: link, DownAt: down, UpAt: down + hold}
		flaps = append(flaps, fl)
		inj.trace.Addf("exp %d attempt %d: flap link=%d down=%v up=%v",
			inj.nonce, inj.attempt, fl.Link, fl.DownAt, fl.UpAt)
	}
	return flaps
}

// BeginTarget rewinds the probe-loss stream to a position derived only from
// (seed, nonce, attempt, target id), making loss draws for one target
// independent of which other targets an experiment probed before it. It is
// the fault-side half of probe.TargetSeeder; the measurement fabric invokes
// it alongside the noise model's rewind.
func (inj *Injector) BeginTarget(id uint64) {
	if inj == nil {
		return
	}
	inj.probeSrc.Rekey(uint64(mix(inj.cfg.Seed, inj.nonce, inj.attempt, saltProbe^(id*splitmix.Gamma))))
}

// DropProbe decides whether one measurement-packet traversal is lost. It is
// part of the probe.FaultModel interface.
func (inj *Injector) DropProbe() bool {
	if inj == nil || inj.cfg.ProbeLossProb <= 0 {
		return false
	}
	if inj.probe.Float64() < inj.cfg.ProbeLossProb {
		inj.trace.Addf("exp %d attempt %d: probe lost", inj.nonce, inj.attempt)
		return true
	}
	return false
}

// SiteDead reports whether the site is blacked out for this campaign. It is
// part of the probe.FaultModel interface.
func (inj *Injector) SiteDead(siteID int) bool {
	return inj != nil && inj.blackout[siteID]
}

// BlackoutSites returns the blacked-out site IDs in ascending order.
func (inj *Injector) BlackoutSites() []int {
	if inj == nil || len(inj.blackout) == 0 {
		return nil
	}
	out := make([]int, 0, len(inj.blackout))
	for id := range inj.blackout {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}
