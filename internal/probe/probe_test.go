package probe

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"anyopt/internal/netproto"

	"anyopt/internal/bgp"
	"anyopt/internal/fault"
	"anyopt/internal/testbed"
	"anyopt/internal/topology"
)

// rig bundles a converged deployment and a fabric over it.
type rig struct {
	tb   *testbed.Testbed
	topo *topology.Topology
	sim  *bgp.Sim
	dep  *testbed.Deployment
}

func newRig(t testing.TB, sites ...int) *rig {
	t.Helper()
	topo, err := topology.Generate(topology.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	tb, err := testbed.New(topo, testbed.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sim := bgp.New(topo, bgp.DefaultConfig())
	dep := tb.NewDeployment(sim, 0)
	if len(sites) > 0 {
		dep.AnnounceSites(sites...)
	}
	return &rig{tb: tb, topo: topo, sim: sim, dep: dep}
}

func (r *rig) prober(noise *NoiseModel) *Prober {
	fab := NewSimFabric(r.tb, r.sim, 0, noise)
	return New(fab, DefaultConfig(r.tb.OrchAddr, r.tb.AnycastAddrs[0]), r.sim.Engine.Now())
}

func TestCatchmentProbeIdentifiesSite(t *testing.T) {
	r := newRig(t, 1, 4, 6)
	p := r.prober(nil)

	enabled := map[int]bool{1: true, 4: true, 6: true}
	for _, tg := range r.topo.Targets[:100] {
		key, err := p.Catchment(tg.Addr)
		if err != nil {
			t.Fatalf("target %v: %v", tg.Addr, err)
		}
		site := r.tb.SiteByTunnelKey(key)
		if site == nil || !enabled[site.ID] {
			t.Fatalf("target %v caught by key %d (site %v)", tg.Addr, key, site)
		}
		// Cross-check against ground truth forwarding.
		fw, ok := r.sim.Forward(0, tg)
		if !ok {
			t.Fatal("ground truth unroutable")
		}
		if r.tb.SiteByLink(fw.EntryLink) != site {
			t.Fatalf("probe key %d disagrees with forwarding ground truth", key)
		}
		if link, ok := r.tb.LinkByTunnelKey(key); !ok || link != fw.EntryLink {
			t.Fatalf("tunnel key %d decodes to link %d, ground truth %d", key, link, fw.EntryLink)
		}
	}
	if p.Sent == 0 || p.Received != p.Sent {
		t.Errorf("sent/received = %d/%d with noise-free fabric", p.Sent, p.Received)
	}
}

func TestRTTProbeMatchesGroundTruth(t *testing.T) {
	// Single-site announcement (§3.1 RTT methodology). Noise-free: measured
	// RTT must equal 2× the forwarding delay exactly (tunnel RTT cancels).
	r := newRig(t, 4)
	p := r.prober(nil)
	site := r.tb.Site(4)

	for _, tg := range r.topo.Targets[:50] {
		rtt, err := p.RTT(site.TunnelKey, site.TunnelAddr, site.TunnelRTT, tg.Addr)
		if err != nil {
			t.Fatalf("target %v: %v", tg.Addr, err)
		}
		fw, ok := r.sim.Forward(0, tg)
		if !ok {
			t.Fatal("unroutable")
		}
		want := 2 * fw.Delay
		if d := rtt - want; d < -time.Microsecond || d > time.Microsecond {
			t.Fatalf("target %v: RTT %v, ground truth %v", tg.Addr, rtt, want)
		}
	}
}

func TestRTTWithNoiseIsClose(t *testing.T) {
	r := newRig(t, 4)
	p := r.prober(DefaultNoise(7))
	site := r.tb.Site(4)

	var relErrs []float64
	for _, tg := range r.topo.Targets[:60] {
		rtt, err := p.RTT(site.TunnelKey, site.TunnelAddr, site.TunnelRTT, tg.Addr)
		if err != nil {
			continue // occasional loss bursts are fine
		}
		fw, _ := r.sim.Forward(0, tg)
		want := 2 * fw.Delay
		relErrs = append(relErrs, math.Abs(float64(rtt-want))/float64(want))
	}
	if len(relErrs) < 50 {
		t.Fatalf("only %d/60 measurements succeeded", len(relErrs))
	}
	sum := 0.0
	for _, e := range relErrs {
		sum += e
	}
	if mean := sum / float64(len(relErrs)); mean > 0.10 {
		t.Errorf("mean relative RTT error %.1f%% under default noise; median-of-7 should keep this under 10%%", mean*100)
	}
}

func TestProbeLossRetry(t *testing.T) {
	r := newRig(t, 1)
	// 30% loss on each of a probe's three traversal legs (request, reply,
	// tunnel back), so one probe survives with 0.7³ = 0.343 and seven tries
	// reach a target with 1 − 0.657⁷ = 0.947: of 80 targets 75.8 are expected
	// to answer, σ = √(80·0.947·0.053) = 2.0. The bound sits 4σ below the
	// mean, so it holds for any sound generator and seed, not for one draw.
	p := r.prober(NewNoiseModel(3, 0, 0, 0, 0.30))

	ok := 0
	for _, tg := range r.topo.Targets[:80] {
		if _, err := p.CatchmentRetry(tg.Addr, 7); err == nil {
			ok++
		}
	}
	if ok < 67 {
		t.Errorf("only %d/80 catchment probes succeeded under 30%% per-leg loss with 7 retries; the model expects 75.8 ± 2.0", ok)
	}
}

func TestRTTFailsWhenTooFewSamples(t *testing.T) {
	r := newRig(t, 1)
	p := r.prober(NewNoiseModel(3, 0, 0, 0, 1.0)) // 100% loss
	site := r.tb.Site(1)
	if _, err := p.RTT(site.TunnelKey, site.TunnelAddr, site.TunnelRTT, r.topo.Targets[0].Addr); err == nil {
		t.Error("RTT succeeded with 100% loss")
	}
}

func TestUnreachableWhenNothingAnnounced(t *testing.T) {
	r := newRig(t) // no sites announced
	p := r.prober(nil)
	_, err := p.Catchment(r.topo.Targets[0].Addr)
	if !errors.Is(err, ErrUnreachable) {
		t.Errorf("err = %v, want ErrUnreachable", err)
	}
}

func TestUnknownTargetRejected(t *testing.T) {
	r := newRig(t, 1)
	p := r.prober(nil)
	if _, err := p.Catchment(r.tb.OrchAddr); err == nil {
		t.Error("probing a non-target address succeeded")
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []time.Duration
		want time.Duration
	}{
		{[]time.Duration{5}, 5},
		{[]time.Duration{1, 9, 5}, 5},
		{[]time.Duration{9, 1, 5, 7}, 5},              // even count: the lower middle
		{[]time.Duration{3, 3, 3, 100, 200, 3, 3}, 3}, // outliers filtered
	}
	for _, c := range cases {
		in := fmt.Sprint(c.in)
		if got := median(c.in); got != c.want {
			t.Errorf("median(%s) = %v, want %v", in, got, c.want)
		}
		if !slices.IsSorted(c.in) {
			t.Errorf("median(%s) left %v unsorted; it sorts in place", in, c.in)
		}
	}
}

func TestNoiseModelProperties(t *testing.T) {
	n := DefaultNoise(1)
	base := 50 * time.Millisecond
	survived, total := 0, 5000
	var sum time.Duration
	for i := 0; i < total; i++ {
		d, ok := n.Apply(base)
		if !ok {
			continue
		}
		survived++
		if d < base {
			t.Fatalf("noise shrank delay: %v < %v", d, base)
		}
		sum += d
	}
	lossRate := 1 - float64(survived)/float64(total)
	if lossRate < 0.002 || lossRate > 0.03 {
		t.Errorf("loss rate %.3f outside [0.002, 0.03] for 1%% nominal", lossRate)
	}
	mean := sum / time.Duration(survived)
	if mean < base || mean > base+5*time.Millisecond {
		t.Errorf("mean noisy delay %v implausible for base %v", mean, base)
	}
	// Nil model is a pass-through.
	var nilModel *NoiseModel
	if d, ok := nilModel.Apply(base); !ok || d != base {
		t.Error("nil noise model altered the packet")
	}
}

// noiseDraws rewinds n to target id and returns the next k traversal outcomes.
func noiseDraws(n *NoiseModel, id uint64, k int) []time.Duration {
	n.BeginTarget(id)
	out := make([]time.Duration, k)
	for i := range out {
		if d, ok := n.Apply(50 * time.Millisecond); ok {
			out[i] = d
		}
	}
	return out
}

// TestNoiseTargetStreamIsPositionIndependent pins BeginTarget: a target's
// draws depend on (seed, target) only — not on which targets were probed
// before it or how much they drew — and different targets, like different
// seeds, get different streams. A filtered campaign reproducing the full
// campaign's rows rests on the first half, the noise being noise on the
// second.
func TestNoiseTargetStreamIsPositionIndependent(t *testing.T) {
	full := DefaultNoise(9)
	for id := uint64(1); id < 40; id++ {
		noiseDraws(full, id, int(id))
	}
	want := noiseDraws(full, 40, 30)
	if got := noiseDraws(DefaultNoise(9), 40, 30); !slices.Equal(got, want) {
		t.Error("target 40's noise depends on the targets probed before it")
	}
	if got := noiseDraws(DefaultNoise(9), 41, 30); slices.Equal(got, want) {
		t.Error("targets 40 and 41 drew the same noise")
	}
	if got := noiseDraws(DefaultNoise(10), 40, 30); slices.Equal(got, want) {
		t.Error("seeds 9 and 10 drew the same noise for target 40")
	}
}

// TestNoiseBeginTargetAllocatesNothing holds the rewind to what it is meant
// to be, a store: a campaign performs one per probed target.
func TestNoiseBeginTargetAllocatesNothing(t *testing.T) {
	n := DefaultNoise(1)
	id := uint64(0)
	if allocs := testing.AllocsPerRun(1000, func() {
		id++
		n.BeginTarget(id)
	}); allocs != 0 {
		t.Errorf("BeginTarget allocates %.1f objects per call", allocs)
	}
}

// sweepAllocs is the allocation budget of one catchment sweep through
// SimFabric over every test-scale target: probe packets, replies and the
// fabric's target resolution all live in per-session scratch, and the sim's
// catchment memo is warm after the first sweep of a routing generation.
const sweepAllocs = 0

func TestCatchmentSweepAllocationBudget(t *testing.T) {
	r := newRig(t, 1, 4, 6)
	p := r.prober(DefaultNoise(3))
	sweep := func() {
		for _, tg := range r.topo.Targets {
			p.BeginTarget(uint64(tg.AS))
			if _, err := p.CatchmentRetry(tg.Addr, 3); err != nil && !errors.Is(err, ErrLost) {
				t.Fatal(err)
			}
		}
	}
	if got := testing.AllocsPerRun(10, sweep); got != sweepAllocs {
		t.Fatalf("catchment sweep of %d targets allocates %v objects, budget %d", len(r.topo.Targets), got, sweepAllocs)
	}
}

// BenchmarkNoiseBeginTarget is one target's worth of stream work: the rewind
// plus one traversal's draws.
func BenchmarkNoiseBeginTarget(b *testing.B) {
	n := DefaultNoise(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n.BeginTarget(uint64(i))
		n.Apply(50 * time.Millisecond)
	}
}

func TestClockAdvances(t *testing.T) {
	r := newRig(t, 1)
	p := r.prober(nil)
	t0 := p.clock
	if _, err := p.Catchment(r.topo.Targets[0].Addr); err != nil {
		t.Fatal(err)
	}
	if p.clock <= t0 {
		t.Error("virtual clock did not advance across a probe")
	}
}

func BenchmarkCatchmentProbe(b *testing.B) {
	r := newRig(b, 1, 4, 6)
	p := r.prober(nil)
	tg := r.topo.Targets[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Catchment(tg.Addr); err != nil {
			b.Fatal(err)
		}
	}
}

func TestFabricPcapCapture(t *testing.T) {
	r := newRig(t, 1, 4)
	fab := NewSimFabric(r.tb, r.sim, 0, nil)
	var buf bytes.Buffer
	w, err := netproto.NewPcapWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fab.Capture = w
	p := New(fab, DefaultConfig(r.tb.OrchAddr, r.tb.AnycastAddrs[0]), 0)

	n := 5
	for _, tg := range r.topo.Targets[:n] {
		if _, err := p.Catchment(tg.Addr); err != nil {
			t.Fatal(err)
		}
	}
	// One request + one reply per probe.
	if w.Count() != 2*n {
		t.Fatalf("captured %d packets, want %d", w.Count(), 2*n)
	}
	_, packets, stamps, err := netproto.ReadPcap(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(packets) != 2*n {
		t.Fatalf("parsed %d packets", len(packets))
	}
	for i := 1; i < len(stamps); i++ {
		if stamps[i] < stamps[i-1] {
			t.Fatalf("capture timestamps not monotone at %d", i)
		}
	}
	// Every captured packet must parse as IPv4.
	for i, pkt := range packets {
		if _, _, err := netproto.ParseIPv4(pkt); err != nil {
			t.Fatalf("packet %d unparseable: %v", i, err)
		}
	}
}

// wireBytesSHA256 pins every byte the orchestrator sends and receives in
// TestProbeWireBytesPinned, virtual timestamps included. The packet codecs,
// target resolution and delay lookups may get cheaper; none of that may move
// a byte on the wire, a noise draw or a fault draw, so this hash never needs
// re-recording for a performance change.
const wireBytesSHA256 = "013b4a19f23d0d3b632ab31a11364174e1a0eb284c2c979b6daa7881661ba7ff"

// TestProbeWireBytesPinned captures a full measurement pass at test scale —
// every site announced, default noise, one blacked-out site and injected
// probe loss — and pins the SHA-256 of the capture. For every target it runs
// a catchment probe with retries and then an RTT measurement via every site,
// so both request forms, every reply path, losses, the dead site's silence
// and unreachable targets all reach the capture.
func TestProbeWireBytesPinned(t *testing.T) {
	all := make([]int, 15)
	for i := range all {
		all[i] = i + 1
	}
	r := newRig(t, all...)
	faults := &fault.Config{Seed: 5, ProbeLossProb: 0.03, BlackoutSites: []int{4}}
	fab := NewSimFabric(r.tb, r.sim, 0, DefaultNoise(11))
	fab.Fault = faults.Injector(1, 0, nil)
	var buf bytes.Buffer
	w, err := netproto.NewPcapWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fab.Capture = w
	p := New(fab, DefaultConfig(r.tb.OrchAddr, r.tb.AnycastAddrs[0]), r.sim.Engine.Now())

	var caught, measured, failed int
	for _, tg := range r.topo.Targets {
		p.BeginTarget(uint64(tg.AS))
		if _, err := p.CatchmentRetry(tg.Addr, 3); err == nil {
			caught++
		} else if !errors.Is(err, ErrLost) && !errors.Is(err, ErrUnreachable) {
			t.Fatalf("catchment of %v: %v", tg.Addr, err)
		}
		for _, s := range r.tb.Sites {
			if _, err := p.RTT(s.TunnelKey, s.TunnelAddr, s.TunnelRTT, tg.Addr); err == nil {
				measured++
			} else if !errors.Is(err, ErrLost) && !errors.Is(err, ErrUnreachable) {
				t.Fatalf("RTT of %v via site %d: %v", tg.Addr, s.ID, err)
			} else {
				failed++
			}
		}
	}
	if caught == 0 || measured == 0 || failed == 0 {
		t.Fatalf("pass exercised too little: %d caught, %d RTTs measured, %d failed", caught, measured, failed)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != wireBytesSHA256 {
		t.Errorf("capture of %d packets (%d bytes) hashes to %s, pinned %s", w.Count(), buf.Len(), got, wireBytesSHA256)
	}
}
