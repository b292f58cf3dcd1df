package fault

import (
	"reflect"
	"testing"
	"time"

	"anyopt/internal/topology"
)

// hot is a configuration with every fault class firing often enough that a
// few hundred draws exercise each stream.
func hot(seed int64) *Config {
	return &Config{
		Seed:            seed,
		FlapProb:        0.9,
		FlapMaxLinks:    3,
		UpdateDropProb:  0.2,
		UpdateDelayProb: 0.3,
		ProbeLossProb:   0.3,
	}
}

// drive consumes every fault class of one injector in a fixed interleaving —
// with per-target rewinds on the probe stream — and returns the decisions
// taken plus the trace they left.
func drive(c *Config, nonce uint64, attempt int) ([]any, []string) {
	tr := &Trace{}
	inj := c.Injector(nonce, attempt, tr)
	var out []any
	out = append(out, inj.FlapPlan([]topology.LinkID{3, 5, 8, 13}))
	for i := 0; i < 200; i++ {
		if i%10 == 0 {
			inj.BeginTarget(uint64(1000 + i))
		}
		drop, extra := inj.UpdateFate(topology.LinkID(i), topology.ASN(i), 0)
		out = append(out, drop, extra, inj.DropProbe())
	}
	return out, tr.Entries()
}

// TestInjectorSameKeySameStream pins the determinism contract the quorum
// argument rests on: (seed, nonce, attempt) fixes every decision and the
// trace, and changing any one of the three re-rolls them.
func TestInjectorSameKeySameStream(t *testing.T) {
	a, aTrace := drive(hot(7), 12, 1)
	b, bTrace := drive(hot(7), 12, 1)
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(aTrace, bTrace) {
		t.Fatal("same (seed, nonce, attempt) produced different fault decisions")
	}
	if len(aTrace) == 0 {
		t.Fatal("hot configuration injected nothing; the test is vacuous")
	}
	for name, other := range map[string]func() ([]any, []string){
		"seed":    func() ([]any, []string) { return drive(hot(8), 12, 1) },
		"nonce":   func() ([]any, []string) { return drive(hot(7), 13, 1) },
		"attempt": func() ([]any, []string) { return drive(hot(7), 12, 2) },
	} {
		if c, _ := other(); reflect.DeepEqual(a, c) {
			t.Errorf("changing the %s left every fault decision unchanged", name)
		}
	}
}

// TestInjectorTargetStreamIsPositionIndependent pins BeginTarget: a target's
// loss draws depend on (seed, nonce, attempt, target) only — not on how many
// probes other targets consumed first — which is what lets a filtered
// campaign reproduce the full campaign's rows.
func TestInjectorTargetStreamIsPositionIndependent(t *testing.T) {
	draws := func(inj *Injector, target uint64) []bool {
		inj.BeginTarget(target)
		out := make([]bool, 20)
		for i := range out {
			out[i] = inj.DropProbe()
		}
		return out
	}
	full := hot(3).Injector(5, 0, &Trace{})
	for target := uint64(1); target < 40; target++ {
		draws(full, target)
	}
	want := draws(full, 40)
	filtered := hot(3).Injector(5, 0, &Trace{})
	if got := draws(filtered, 40); !reflect.DeepEqual(got, want) {
		t.Error("target 40's loss draws depend on the targets probed before it")
	}
}

// TestInjectorTargetStreamsDiffer is the other half of BeginTarget: distinct
// targets draw distinct loss streams, and the rewind — one per probed target,
// hundreds of thousands per campaign — allocates nothing.
func TestInjectorTargetStreamsDiffer(t *testing.T) {
	inj := hot(3).Injector(5, 0, nil)
	draws := func(target uint64) [64]bool {
		inj.BeginTarget(target)
		var out [64]bool
		for i := range out {
			out[i] = inj.DropProbe()
		}
		return out
	}
	if draws(40) != draws(40) {
		t.Error("target 40's loss draws are not repeatable")
	}
	if draws(40) == draws(41) {
		t.Error("targets 40 and 41 drew the same losses")
	}
	target := uint64(0)
	if allocs := testing.AllocsPerRun(1000, func() {
		target++
		inj.BeginTarget(target)
	}); allocs != 0 {
		t.Errorf("BeginTarget allocates %.1f objects per call", allocs)
	}
}

// TestInjectorClassStreamsIndependent pins the per-class streams: draining
// one class never shifts another's draws.
func TestInjectorClassStreamsIndependent(t *testing.T) {
	probes := func(inj *Injector) []bool {
		out := make([]bool, 100)
		for i := range out {
			out[i] = inj.DropProbe()
		}
		return out
	}
	quiet := hot(11).Injector(4, 0, &Trace{})
	want := probes(quiet)

	noisy := hot(11).Injector(4, 0, &Trace{})
	noisy.FlapPlan([]topology.LinkID{1, 2, 3})
	for i := 0; i < 500; i++ {
		noisy.UpdateFate(topology.LinkID(i), 1, 0)
	}
	if got := probes(noisy); !reflect.DeepEqual(got, want) {
		t.Error("update and plan draws shifted the probe-loss stream")
	}

	// And the other way round: probe draws leave update fates alone.
	fates := func(inj *Injector) []time.Duration {
		out := make([]time.Duration, 100)
		for i := range out {
			_, out[i] = inj.UpdateFate(topology.LinkID(i), 1, 0)
		}
		return out
	}
	a := hot(11).Injector(4, 0, &Trace{})
	wantFates := fates(a)
	b := hot(11).Injector(4, 0, &Trace{})
	probes(b)
	if got := fates(b); !reflect.DeepEqual(got, wantFates) {
		t.Error("probe-loss draws shifted the update stream")
	}
}

// injectorAllocs is what building one attempt's injector under the paper
// preset costs: the Injector, the update and plan rand.Rand values with their
// rngSource (seeded once per attempt), and the probe rand.Rand over the
// inline keyed source.
const injectorAllocs = 6

// TestInjectorAllocationBudget holds the cost of an Injector, which a faulted
// campaign builds once per experiment attempt, to an exact count.
func TestInjectorAllocationBudget(t *testing.T) {
	c, err := Scenario("paper", 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := &Trace{}
	n := uint64(0)
	if allocs := testing.AllocsPerRun(200, func() {
		n++
		c.Injector(n, 0, tr)
	}); allocs != injectorAllocs {
		t.Errorf("Injector allocates %v objects, budget %d", allocs, injectorAllocs)
	}
}

// TestZeroRateConfigIsDisabled pins the zero-cost-when-off contract: a
// config with a seed but no rates is indistinguishable from no config — no
// injector, and a nil injector decides nothing and logs nothing.
func TestZeroRateConfigIsDisabled(t *testing.T) {
	var none *Config
	zero := &Config{Seed: 99, FlapMaxLinks: 3, FlapWindow: time.Hour, UpdateDelayMax: time.Second}
	for name, c := range map[string]*Config{"nil": none, "zero-rate": zero} {
		if c.Enabled() {
			t.Errorf("%s config reports enabled", name)
		}
		if c.BlackedOut(1) {
			t.Errorf("%s config blacks out a site", name)
		}
		tr := &Trace{}
		inj := c.Injector(1, 0, tr)
		if inj != nil {
			t.Fatalf("%s config built an injector", name)
		}
		inj.BeginTarget(7)
		drop, extra := inj.UpdateFate(1, 2, 0)
		if drop || extra != 0 || inj.DropProbe() || inj.SiteDead(1) ||
			inj.FlapPlan([]topology.LinkID{1}) != nil || inj.BlackoutSites() != nil {
			t.Errorf("%s config's nil injector injected a fault", name)
		}
		if len(tr.Entries()) != 0 {
			t.Errorf("%s config traced %v", name, tr.Entries())
		}
	}
	for _, name := range []string{"", "none"} {
		if c, err := Scenario(name, 5); err != nil || c.Enabled() {
			t.Errorf("Scenario(%q) = %+v, %v; want a disabled config", name, c, err)
		}
	}
	if c, err := Scenario("paper", 5); err != nil || !c.Enabled() || c.Seed != 5 {
		t.Errorf("Scenario(paper) = %+v, %v", c, err)
	}
	if _, err := Scenario("apocalypse", 5); err == nil {
		t.Error("unknown scenario accepted")
	}
}

// TestPlanChurnCannotStall asks for more link-down events than there are
// links: the plan returns every link once and stops, instead of drawing
// forever for a kind the topology has no room left for.
func TestPlanChurnCannotStall(t *testing.T) {
	p := topology.TestParams()
	p.NumTransit, p.NumStub = 4, 6
	topo, err := topology.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	events := PlanChurn(topo, 1, 10*len(topo.Links), []ChurnKind{ChurnLinkDown})
	if len(events) == 0 || len(events) > len(topo.Links) {
		t.Fatalf("planned %d link-down events over %d links", len(events), len(topo.Links))
	}
	seen := map[topology.LinkID]bool{}
	for _, ev := range events {
		if ev.Kind != ChurnLinkDown || seen[ev.Link] {
			t.Fatalf("event %+v repeats a link or is not a link-down", ev)
		}
		seen[ev.Link] = true
	}
}

// TestApplyChurnAllOrNothing applies a batch whose second event names a link
// the topology lacks: the batch is refused whole, so the first event's link
// keeps its delay.
func TestApplyChurnAllOrNothing(t *testing.T) {
	p := topology.TestParams()
	p.NumTransit, p.NumStub = 4, 6
	topo, err := topology.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	l := topo.Links[0]
	before := l.Delay
	events := []ChurnEvent{
		{Kind: ChurnLinkCost, Link: l.ID, NewDelay: before + time.Second},
		{Kind: ChurnLinkDown, Link: topology.LinkID(len(topo.Links) + 1000)},
	}
	if _, err := ApplyChurn(topo, events); err == nil {
		t.Fatal("batch with an unknown link applied")
	}
	if l.Delay != before {
		t.Fatalf("refused batch changed link %d's delay: %v -> %v", l.ID, before, l.Delay)
	}
}
