// Package discovery plans and runs AnyOpt's measurement experiments (§3,
// §4.3, §4.5): singleton announcements for RTT measurement, order-controlled
// pairwise announcements for provider-level preference discovery, intra-AS
// pairwise experiments for site-level preferences, and the naive
// (simultaneous-announcement) variants the paper compares against.
//
// Every experiment runs on a fresh BGP simulation with a fresh jitter nonce,
// reflecting that real experiments happen hours apart on an Internet whose
// races never replay identically. The prefix is withdrawn between
// experiments, as the paper does.
//
// Experiments are mutually independent, so campaign drivers submit them in
// batches to a worker pool (internal/exec). Nonces are assigned at
// submission time, in submission order, before any experiment starts —
// making every experiment's outcome a pure function of its inputs and the
// campaign's results byte-identical whether the batch runs on one worker or
// many.
//
// Every experiment returns one Sweep — dense columns over the target
// positions — and that one type is what the quorum votes on, the journal
// stores, and the columnar stores are filled from by index.
//
// The campaign self-heals under injected faults (see resilience.go): each
// experiment is re-run until K attempts agree on every row (quorum), dead
// sites are quarantined and their experiment slots skipped (keeping the
// nonce schedule aligned with a fault-free run), and an optional Journal
// checkpoints completed experiments so a killed campaign resumes
// byte-identically.
package discovery

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"anyopt/internal/bgp"
	"anyopt/internal/core/prefs"
	"anyopt/internal/exec"
	"anyopt/internal/fault"
	"anyopt/internal/probe"
	"anyopt/internal/testbed"
	"anyopt/internal/topology"
)

// Config parameterizes a discovery campaign.
type Config struct {
	// SimCfg is the base simulator configuration; JitterNonce is replaced
	// per experiment.
	SimCfg bgp.Config
	// Spacing separates ordered announcements within one experiment (§5.1
	// uses six minutes).
	Spacing time.Duration
	// NoiseSeed seeds per-experiment measurement noise; Noisy toggles it.
	NoiseSeed int64
	Noisy     bool
	// ProbeAttempts overrides the per-measurement attempt count (default 7).
	ProbeAttempts int
	// Workers bounds how many experiments run concurrently; <= 0 selects
	// exec.DefaultWorkers (ANYOPT_WORKERS or GOMAXPROCS).
	Workers int

	// Faults enables deterministic fault injection (nil or all-zero rates =
	// fault-free, byte-identical to a build without the chaos layer).
	Faults *fault.Config
	// QuorumK/QuorumN govern self-healing re-measurement when faults are
	// enabled: each row of an experiment's sweep is accepted once K of up to
	// N attempts agree on it exactly (defaults 2 of 5). Attempts reuse the
	// experiment's jitter nonce and noise seed, so a fault-free attempt
	// reproduces the fault-free row exactly — which is why agreement
	// converges to it.
	QuorumK, QuorumN int
	// ExperimentTimeout bounds one experiment attempt in wall-clock time;
	// 0 (the default) disables it. A timeout abandons the attempt's
	// goroutine and retries with fresh faults; because it depends on
	// wall-clock speed it makes campaign results machine-dependent, so
	// leave it off when byte-reproducibility matters.
	ExperimentTimeout time.Duration
	// RetryBase is the base wall-clock backoff between quorum attempts
	// (exponential, bounded; default 1ms — attempts are simulated, so the
	// backoff models pacing, not load shedding).
	RetryBase time.Duration

	// ShardLo/ShardHi, when ShardHi > 0, restrict fresh experiment execution
	// to campaign nonces in the half-open range [ShardLo, ShardHi): an
	// out-of-range experiment still consumes its nonce — keeping the
	// deterministic schedule aligned with an unsharded campaign — but is
	// skipped (zero result) instead of run, unless the journal already holds
	// it, in which case it replays as usual. Shards of one campaign run as
	// independent OS processes, each journaling its own nonce range to its
	// own checkpoint file; merging the journals and replaying the schedule
	// reproduces the single-process campaign byte for byte (see
	// internal/campaign.MergeShardCheckpoints). Sharded campaigns must run
	// fault-free: quarantine is cross-shard state no single shard can
	// observe, so runBatch rejects the combination.
	ShardLo, ShardHi uint64

	// TargetFilter, when non-nil, restricts probing to targets whose client
	// AS is in the set. Experiments still run the full BGP schedule (every
	// announcement, every nonce), so routing state matches an unfiltered
	// campaign exactly; only the measurement loop skips out-of-set targets.
	// Combined with per-target noise rewinding (probe.Prober.BeginTarget),
	// a filtered campaign reproduces the unfiltered campaign's rows for the
	// selected clients byte-for-byte — the contract the churn reconciler's
	// cone-scoped repair is built on. Dead-site detection is disabled under
	// a filter (an empty filtered row is expected, not an outage); callers
	// restore quarantine from the snapshot being repaired instead.
	TargetFilter map[prefs.Client]bool
}

// DefaultConfig returns the paper-faithful campaign settings.
func DefaultConfig() Config {
	return Config{
		SimCfg:  bgp.DefaultConfig(),
		Spacing: 6 * time.Minute,
		Noisy:   true,
	}
}

// Discovery runs experiments against one testbed.
type Discovery struct {
	TB  *testbed.Testbed
	Cfg Config

	// Experiments counts BGP experiments run, for §4.5 schedule accounting.
	Experiments int
	// Slots counts sequential experiment slots consumed; parallel prefixes
	// pack several experiments into one slot (§4.5).
	Slots int
	// ProbesSent counts measurement packets.
	ProbesSent uint64

	nonce uint64
	pool  *exec.Pool

	// ctx, when set, parents every batch: cancelling it stops queued
	// experiments at the next batch boundary (in-flight ones finish). Nil
	// means context.Background — the campaign runs to completion.
	ctx context.Context

	// completed counts experiments finished so far, including checkpoint
	// replays. Unlike Experiments (bumped once per batch on the caller's
	// goroutine), completed advances from worker goroutines as results land,
	// so progress reporters may read it concurrently via
	// CompletedExperiments.
	completed atomic.Uint64

	// poolHits / poolMisses count warm-session reuse in acquireSim: a hit
	// recycles a converged simulator through Sim.Reset, a miss constructs a
	// fresh one. Exposed through SimPoolStats for the /metrics endpoint.
	poolHits, poolMisses atomic.Uint64

	// quorumRetries counts experiment attempts beyond each experiment's
	// first — the price of K-of-N re-measurement under faults. Advances from
	// worker goroutines; read via QuorumRetries.
	quorumRetries atomic.Uint64

	// freeSims holds converged simulators between experiments: Sim.Reset
	// clears a session in place, so workers reuse warm topology-sized state
	// (maps, slabs, arenas, the event pool) instead of reallocating it for
	// each of the campaign's N² experiments. It is a plain LIFO list, not a
	// sync.Pool, so how many simulators a campaign constructs depends on the
	// worker count alone and never on when the collector runs; simMu is held
	// for a push or a pop, never across an experiment. Whoever drives the
	// campaign calls DropSims when it is over.
	simMu    sync.Mutex
	freeSims []*bgp.Sim
	// freshSims disables that reuse: every experiment constructs a brand-new
	// bgp.Sim. Only the differential test that proves reuse byte-identical
	// sets it.
	freshSims bool

	// quarantined maps dead site IDs to the reason they were pulled from
	// the campaign; see QuarantineSite.
	quarantined map[int]string
	// faultLog accumulates the campaign's failure trace: per-experiment
	// injector traces folded in submission order plus quarantine and
	// degradation notes. Deterministic for a given fault seed.
	faultLog []string
	// journal, when set, checkpoints completed experiments by nonce.
	journal Journal
	// runErr records the first experiment-infrastructure error (checkpoint
	// I/O, schedule mismatch) from batch APIs that return no error.
	runErr error
}

// New creates a discovery campaign over tb.
func New(tb *testbed.Testbed, cfg Config) *Discovery {
	if cfg.Spacing <= 0 {
		cfg.Spacing = 6 * time.Minute
	}
	return &Discovery{TB: tb, Cfg: cfg, pool: exec.New(cfg.Workers)}
}

// SetWorkers re-targets the executor; n <= 0 selects exec.DefaultWorkers.
// Worker count never affects results, only wall-clock.
func (d *Discovery) SetWorkers(n int) { d.pool = exec.New(n) }

// Workers returns the executor's worker count.
func (d *Discovery) Workers() int { return d.pool.Workers() }

// SetContext parents every subsequent batch on ctx: cancelling it drains the
// queue (in-flight experiments finish, queued ones never start) and surfaces
// ctx's error through Err. Install it before the campaign starts; nil
// restores the default context.Background. This is how async discovery jobs
// make a running campaign cancellable without polluting every batch API with
// a context parameter.
func (d *Discovery) SetContext(ctx context.Context) { d.ctx = ctx }

// SeedNonces moves the campaign nonce counter to base. Distinct Discovery
// sessions serving concurrent ad-hoc measurements seed disjoint ranges so
// their experiments draw distinct jitter nonces; a campaign that must replay
// a checkpoint byte-identically keeps the default schedule (fresh Discovery,
// nonces from zero) instead.
func (d *Discovery) SeedNonces(base uint64) { d.nonce = base }

// CompletedExperiments returns the number of experiments finished so far,
// advancing while a batch is in flight. Safe to call from any goroutine.
func (d *Discovery) CompletedExperiments() uint64 { return d.completed.Load() }

// SimPoolStats returns how many experiments recycled a warm simulator (hits)
// versus constructing a fresh one (misses). Safe to call from any goroutine.
func (d *Discovery) SimPoolStats() (hits, misses uint64) {
	return d.poolHits.Load(), d.poolMisses.Load()
}

// DropSims lets go of the warm simulators kept for reuse, so a Discovery
// that outlives its campaign retains none of them. The next experiment
// constructs a fresh one.
func (d *Discovery) DropSims() {
	d.simMu.Lock()
	d.freeSims = nil
	d.simMu.Unlock()
}

// QuorumRetries returns how many experiment attempts ran beyond each
// experiment's first — K-of-N re-measurement cost. Safe from any goroutine.
func (d *Discovery) QuorumRetries() uint64 { return d.quorumRetries.Load() }

// Exp is the context of one experiment attempt inside a batch: the jitter
// nonce fixed at submission time, a private probe counter, and — when fault
// injection is enabled — the attempt's fault injector and trace. Everything
// an experiment reads through it — topology, testbed, campaign config — is
// immutable while the batch runs, so experiments are safe to run on any
// worker in any order.
type Exp struct {
	d       *Discovery
	nonce   uint64
	attempt int
	probes  uint64
	inj     *fault.Injector
	trace   *fault.Trace
	// sims tracks the simulators this attempt acquired, for release back to
	// the campaign free list when the attempt completes.
	sims []*bgp.Sim
}

// sim builds this experiment's simulation with its own jitter nonce,
// modeling an independent experiment run. With fault injection enabled it
// also arms the chaos layer: the update drop/delay hook, permanent link
// failures for blacked-out sites, and this attempt's scheduled session
// flaps.
func (e *Exp) sim() *bgp.Sim {
	cfg := e.d.Cfg.SimCfg
	cfg.JitterNonce = e.nonce
	if e.inj != nil {
		cfg.Chaos = e.inj
	}
	sim := e.d.acquireSim(cfg)
	e.sims = append(e.sims, sim)
	// Persistent churn outages survive across experiments (unlike injected
	// flaps): Sim.Reset clears failed-link state, so every session re-fails
	// the topology's down links before running.
	for _, id := range e.d.TB.Topo.DownLinks() {
		sim.FailLink(id)
	}
	if e.inj != nil {
		for _, id := range e.inj.BlackoutSites() {
			site := e.d.TB.Site(id)
			if site == nil {
				continue
			}
			sim.FailLink(site.TransitLink)
			for _, pl := range site.PeerLinks {
				sim.FailLink(pl)
			}
		}
		for _, fl := range e.inj.FlapPlan(e.d.flapCandidates()) {
			fl := fl
			sim.Engine.Schedule(fl.DownAt, func() { sim.FailLink(fl.Link) })
			sim.Engine.Schedule(fl.UpAt, func() { sim.RestoreLink(fl.Link) })
		}
	}
	return sim
}

// acquireSim hands out a simulator configured with cfg: the most recently
// released warm session (reset in place) when there is one, a new
// construction otherwise or when freshSims disables reuse.
func (d *Discovery) acquireSim(cfg bgp.Config) *bgp.Sim {
	if !d.freshSims {
		var sim *bgp.Sim
		d.simMu.Lock()
		if n := len(d.freeSims); n > 0 {
			sim, d.freeSims[n-1] = d.freeSims[n-1], nil
			d.freeSims = d.freeSims[:n-1]
		}
		d.simMu.Unlock()
		if sim != nil {
			sim.Reset(cfg)
			d.poolHits.Add(1)
			return sim
		}
	}
	d.poolMisses.Add(1)
	return bgp.New(d.TB.Topo, cfg)
}

// release returns the attempt's simulators to the campaign's free list. It
// must run on the attempt's own goroutine, after its last use of them: an
// attempt abandoned by exec.RunTimeout keeps exclusive ownership of its sims
// until its detached goroutine finishes, so a timed-out attempt can never
// hand a still-running session to another experiment.
func (e *Exp) release() {
	if !e.d.freshSims {
		e.d.simMu.Lock()
		e.d.freeSims = append(e.d.freeSims, e.sims...)
		e.d.simMu.Unlock()
	}
	e.sims = nil
}

// flapCandidates lists the links eligible for injected session flaps: every
// live site's transit link. Blacked-out sites are excluded so a flap's
// restore can never resurrect a link the blackout permanently failed, and
// churn-downed links are excluded for the same reason — a flap's restore
// must not resurrect a persistent outage.
func (d *Discovery) flapCandidates() []topology.LinkID {
	out := make([]topology.LinkID, 0, len(d.TB.Sites))
	for _, s := range d.TB.Sites {
		if d.Cfg.Faults.BlackedOut(s.ID) || d.TB.Topo.LinkIsDown(s.TransitLink) {
			continue
		}
		out = append(out, s.TransitLink)
	}
	return out
}

// targetIncluded reports whether the target's client AS passes the campaign's
// TargetFilter (every target passes a nil filter).
func (d *Discovery) targetIncluded(as topology.ASN) bool {
	return d.Cfg.TargetFilter == nil || d.Cfg.TargetFilter[prefs.Client(as)]
}

// FilteredTargets returns how many of the testbed's targets the campaign will
// probe versus the total, for repair-fraction accounting.
func (d *Discovery) FilteredTargets() (probed, total int) {
	total = len(d.TB.Topo.Targets)
	if d.Cfg.TargetFilter == nil {
		return total, total
	}
	for _, tg := range d.TB.Topo.Targets {
		if d.targetIncluded(tg.AS) {
			probed++
		}
	}
	return probed, total
}

// proberAt builds a measurement prober over sim for the given test prefix,
// with per-experiment noise offset by seedExtra (parallel-prefix slots give
// each prefix its own noise stream).
func (e *Exp) proberAt(sim *bgp.Sim, prefix bgp.PrefixID, seedExtra int64) *probe.Prober {
	var noise *probe.NoiseModel
	if e.d.Cfg.Noisy {
		noise = probe.DefaultNoise(e.d.Cfg.NoiseSeed + int64(e.nonce)*7919 + seedExtra)
	}
	fab := probe.NewSimFabric(e.d.TB, sim, prefix, noise)
	if e.inj != nil {
		fab.Fault = e.inj
	}
	cfg := probe.DefaultConfig(e.d.TB.OrchAddr, e.d.TB.AnycastAddrs[prefix])
	if e.d.Cfg.ProbeAttempts > 0 {
		cfg.Attempts = e.d.Cfg.ProbeAttempts
	}
	return probe.New(fab, cfg, sim.Engine.Now())
}

// prober builds the default prober (prefix 0) over sim.
func (e *Exp) prober(sim *bgp.Sim) *probe.Prober { return e.proberAt(sim, 0, 0) }

// deploy announces siteIDs in order (spaced) plus any peering links on a
// fresh simulation and returns it.
func (e *Exp) deploy(siteIDs []int, peers []topology.LinkID) *bgp.Sim {
	sim := e.sim()
	dep := e.d.TB.NewDeployment(sim, 0)
	dep.Spacing = e.d.Cfg.Spacing
	dep.AnnounceSites(siteIDs...)
	for _, pl := range peers {
		dep.EnablePeer(pl)
	}
	return sim
}

// deploySimultaneous announces both sites at the same instant on a fresh
// simulation, leaving arrival order to jitter.
func (e *Exp) deploySimultaneous(a, b int) *bgp.Sim {
	sim := e.sim()
	dep := e.d.TB.NewDeployment(sim, 0)
	dep.AnnounceSitesSimultaneously(a, b)
	return sim
}

// Sweep is one experiment's result: a Verfploeter sweep (§3.1) — one flat
// (target → site, rtt) row per pinged target — held as dense columns over
// the position in tb.Topo.Targets. A column the experiment does not measure
// stays nil, and the zero Sweep (a skipped slot: quarantined pair, another
// shard's nonce) reads as "no answer" everywhere. Every layer between the
// probe and the columnar stores — quorum, journal, store append — works on
// these columns by index.
type Sweep struct {
	// Site is each target's catchment site ID; 0 means no answer (site IDs
	// start at 1).
	Site []int32 `json:"site,omitempty"`
	// Link is the origin-side link the reply entered over (transit or
	// peering), decoded from the per-interface GRE key; read only where
	// Site is non-zero.
	Link []int32 `json:"link,omitempty"`
	// RTT is each target's measured RTT in nanoseconds, rttMissing where
	// unmeasured. A parallel-prefix slot lays its per-prefix rows end to end.
	RTT []int64 `json:"rtt,omitempty"`
}

// row is one target's cells across a sweep's columns — the unit the quorum
// votes on and the ad-hoc map views read.
type row struct {
	site, link int32
	rtt        int64
}

// rows returns the sweep's row count: the length of its longest column.
func (sw Sweep) rows() int { return max(len(sw.Site), len(sw.Link), len(sw.RTT)) }

// row returns row i; a column the sweep lacks reads as no answer.
func (sw Sweep) row(i int) row {
	r := row{rtt: rttMissing}
	if i < len(sw.Site) {
		r.site = sw.Site[i]
	}
	if i < len(sw.Link) {
		r.link = sw.Link[i]
	}
	if i < len(sw.RTT) {
		r.rtt = sw.RTT[i]
	}
	return r
}

// measure is the campaign's one measurement loop: a single pass over the
// targets, one row per target. With via nil it probes each target's
// catchment (Site, plus Link when withLink) and, when withRTT, the RTT
// through the catchment site; with via set it measures only the RTT through
// that site's tunnel (singleton experiments). Targets that are filtered out,
// or whose probes are lost or unroutable, keep the column's no-answer value.
func (e *Exp) measure(p *probe.Prober, via *testbed.Site, withLink, withRTT bool) Sweep {
	tb := e.d.TB
	n := len(tb.Topo.Targets)
	var sw Sweep
	if via == nil {
		sw.Site = make([]int32, n)
	}
	if withLink {
		sw.Link = make([]int32, n)
	}
	if withRTT {
		sw.RTT = missingRTTs(n)
	}
	for i, tg := range tb.Topo.Targets {
		if !e.d.targetIncluded(tg.AS) {
			continue
		}
		// Rewind the noise/fault streams to this target's position: each
		// target's measurement is then a pure function of (experiment,
		// target), independent of which other targets were probed — what
		// keeps a filtered campaign byte-identical to a full one.
		p.BeginTarget(uint64(tg.AS))
		site := via
		if site == nil {
			key, err := p.CatchmentRetry(tg.Addr, 3)
			if err != nil {
				continue
			}
			link, okLink := tb.LinkByTunnelKey(key)
			if site = tb.SiteByTunnelKey(key); site == nil || !okLink {
				continue
			}
			sw.Site[i] = int32(site.ID)
			if withLink {
				sw.Link[i] = int32(link)
			}
		}
		if withRTT {
			if rtt, err := p.RTT(site.TunnelKey, site.TunnelAddr, site.TunnelRTT, tg.Addr); err == nil {
				sw.RTT[i] = int64(rtt)
			}
		}
	}
	e.probes += p.Sent
	return sw
}

// Observation is one client's measured state under a deployed configuration.
type Observation struct {
	// Site is the catchment site ID.
	Site int
	// Link is the exact origin-side link the reply entered over (transit or
	// peering), decoded from the per-interface GRE key.
	Link topology.LinkID
	// RTT is the measured client↔site RTT; valid only when HasRTT.
	RTT    time.Duration
	HasRTT bool
}

// PeerDeployment describes one experiment for RunConfigurationsWithPeers:
// sites announced in order, then peering links enabled.
type PeerDeployment struct {
	Sites []int
	Peers []topology.LinkID
}

// RunConfigurationsWithPeers runs one deployment experiment per entry across
// the worker pool and returns full per-client observations (including RTTs)
// in entry order — the workhorse of the one-pass peering experiments (§4.4).
func (d *Discovery) RunConfigurationsWithPeers(deps []PeerDeployment) []map[prefs.Client]Observation {
	sweeps := d.runBatch("peers", len(deps), func(e *Exp, i int) Sweep {
		sim := e.deploy(deps[i].Sites, deps[i].Peers)
		return e.measure(e.prober(sim), nil, true, true)
	})
	d.Experiments += len(deps)
	targets := d.TB.Topo.Targets
	out := make([]map[prefs.Client]Observation, len(sweeps))
	for i, sw := range sweeps {
		out[i] = make(map[prefs.Client]Observation, len(sw.Site))
		for p := range sw.Site {
			r := sw.row(p)
			if r.site == 0 {
				continue
			}
			obs := Observation{Site: int(r.site), Link: topology.LinkID(r.link)}
			if r.rtt != rttMissing {
				obs.RTT, obs.HasRTT = time.Duration(r.rtt), true
			}
			out[i][prefs.Client(targets[p].AS)] = obs
		}
	}
	return out
}

// RunConfigurationWithPeers deploys site IDs in announcement order, then
// additionally announces the given peering links (after the sites), and
// returns full per-client observations including RTTs.
func (d *Discovery) RunConfigurationWithPeers(siteIDs []int, peers []topology.LinkID) map[prefs.Client]Observation {
	return d.RunConfigurationsWithPeers([]PeerDeployment{{Sites: siteIDs, Peers: peers}})[0]
}

// runConfigs runs one ordered deployment per configuration across the worker
// pool and returns the catchment sweeps in configuration order.
func (d *Discovery) runConfigs(kind string, configs [][]int, withRTT bool) []Sweep {
	out := d.runBatch(kind, len(configs), func(e *Exp, i int) Sweep {
		sim := e.deploy(configs[i], nil)
		return e.measure(e.prober(sim), nil, false, withRTT)
	})
	d.Experiments += len(configs)
	return out
}

// siteMap is the map view of a sweep's Site column, for the ad-hoc
// measurement API: answered targets only, keyed by client.
func (d *Discovery) siteMap(sw Sweep) map[prefs.Client]int {
	out := make(map[prefs.Client]int, len(sw.Site))
	for p, site := range sw.Site {
		if site != 0 {
			out[prefs.Client(d.TB.Topo.Targets[p].AS)] = int(site)
		}
	}
	return out
}

// RunConfigurations runs one ordered deployment per configuration across the
// worker pool and returns measured catchments in configuration order,
// byte-identical to calling RunConfiguration once per entry.
func (d *Discovery) RunConfigurations(configs [][]int) []map[prefs.Client]int {
	sweeps := d.runConfigs("config", configs, false)
	out := make([]map[prefs.Client]int, len(sweeps))
	for i, sw := range sweeps {
		out[i] = d.siteMap(sw)
	}
	return out
}

// RunConfiguration deploys the given site IDs in announcement order (spaced)
// and measures every target's catchment — the "deploy and measure" step of
// §5.2. It returns the measured catchments (site IDs per client).
func (d *Discovery) RunConfiguration(siteIDs []int) map[prefs.Client]int {
	return d.RunConfigurations([][]int{siteIDs})[0]
}

// ConfigResult is one deployment's measured catchments and RTTs.
type ConfigResult struct {
	Catchments map[prefs.Client]int
	RTTs       map[prefs.Client]time.Duration
}

// RunConfigurationsRTTs runs one deployment per configuration across the
// worker pool, measuring each target's catchment and the RTT to it, and
// returns results in configuration order.
func (d *Discovery) RunConfigurationsRTTs(configs [][]int) []ConfigResult {
	sweeps := d.runConfigs("configrtt", configs, true)
	out := make([]ConfigResult, len(sweeps))
	for i, sw := range sweeps {
		rtts := make(map[prefs.Client]time.Duration, len(sw.Site))
		for p := range sw.Site {
			if r := sw.row(p); r.site != 0 && r.rtt != rttMissing {
				rtts[prefs.Client(d.TB.Topo.Targets[p].AS)] = time.Duration(r.rtt)
			}
		}
		out[i] = ConfigResult{Catchments: d.siteMap(sw), RTTs: rtts}
	}
	return out
}

// RunConfigurationRTTs deploys a configuration and measures, for every
// target, the RTT to its measured catchment site (catchment probe, then a
// tunneled RTT probe through that site), mirroring the enhanced Verfploeter
// methodology. It returns per-client catchment sites and RTTs.
func (d *Discovery) RunConfigurationRTTs(siteIDs []int) (map[prefs.Client]int, map[prefs.Client]time.Duration) {
	r := d.RunConfigurationsRTTs([][]int{siteIDs})[0]
	return r.Catchments, r.RTTs
}

// RTTTable holds site↔client RTTs from singleton experiments, columnar:
// one sorted client-ID column shared by every site, plus one parallel value
// column per site (RTT nanoseconds, rttMissing for unmeasured cells). Point
// lookups binary-search both sorted columns; the whole table is a handful of
// contiguous slabs, which is what lets an internet-scale campaign (100k
// clients) fit under a fixed memory ceiling where the former
// map[int]map[prefs.Client]time.Duration representation spent an order of
// magnitude more on hash buckets and per-row map headers.
type RTTTable struct {
	// sites is the sorted site-ID column.
	sites []int
	// clients is the sorted client-ID column, the union across sites.
	clients []prefs.Client
	// cols[si][ci] is the RTT in nanoseconds from sites[si] to clients[ci],
	// or rttMissing when that cell was never measured.
	cols [][]int64
	// counts[si] is the number of measured cells in cols[si].
	counts []int
}

// rttMissing marks an unmeasured (site, client) cell. Real RTTs are
// non-negative, so the sentinel can never collide with a measurement.
const rttMissing int64 = -1

// missingRTTs returns an RTT column of n unmeasured cells.
func missingRTTs(n int) []int64 {
	col := make([]int64, n)
	for i := range col {
		col[i] = rttMissing
	}
	return col
}

// siteIdx binary-searches the site column; returns -1 when absent.
func (t *RTTTable) siteIdx(site int) int {
	i := sort.SearchInts(t.sites, site)
	if i < len(t.sites) && t.sites[i] == site {
		return i
	}
	return -1
}

// clientIdx binary-searches the client column; returns -1 when absent.
func (t *RTTTable) clientIdx(c prefs.Client) int {
	i := sort.Search(len(t.clients), func(k int) bool { return t.clients[k] >= c })
	if i < len(t.clients) && t.clients[i] == c {
		return i
	}
	return -1
}

// RTT returns the measured RTT between site and client.
func (t *RTTTable) RTT(site int, c prefs.Client) (time.Duration, bool) {
	si := t.siteIdx(site)
	if si < 0 {
		return 0, false
	}
	ci := t.clientIdx(c)
	if ci < 0 {
		return 0, false
	}
	ns := t.cols[si][ci]
	if ns == rttMissing {
		return 0, false
	}
	return time.Duration(ns), true
}

// Column resolves a site to its value column for At, -1 when the table has no
// such site — once per configuration, where RTT searches per cell.
func (t *RTTTable) Column(site int) int { return t.siteIdx(site) }

// Seek returns the first row of the client column at or after from whose
// client is not below c, and whether that row is c's. Like prefs.Store.Seek
// it scans forward, for callers walking another sorted client column.
func (t *RTTTable) Seek(from int, c prefs.Client) (int, bool) {
	for from < len(t.clients) && t.clients[from] < c {
		from++
	}
	return from, from < len(t.clients) && t.clients[from] == c
}

// At is RTT by position: the cell of a Column (col ≥ 0) at a row Seek found.
func (t *RTTTable) At(col, row int) (time.Duration, bool) {
	ns := t.cols[col][row]
	if ns == rttMissing {
		return 0, false
	}
	return time.Duration(ns), true
}

// Sites returns the site IDs present in the table, ascending.
func (t *RTTTable) Sites() []int { return append([]int(nil), t.sites...) }

// Clients returns the number of clients measured for the given site.
func (t *RTTTable) Clients(site int) int {
	si := t.siteIdx(site)
	if si < 0 {
		return 0
	}
	return t.counts[si]
}

// MeanUnicast returns the mean RTT from site to all measured clients — the
// metric the paper's greedy baseline ranks sites by.
func (t *RTTTable) MeanUnicast(site int) time.Duration {
	si := t.siteIdx(site)
	if si < 0 || t.counts[si] == 0 {
		return 0
	}
	var sum time.Duration
	for _, ns := range t.cols[si] {
		if ns != rttMissing {
			sum += time.Duration(ns)
		}
	}
	return sum / time.Duration(t.counts[si])
}

// SiteRTTs calls fn for every measured cell of the given site in ascending
// client order — the streaming accessor campaign persistence serializes
// through, one cell at a time.
func (t *RTTTable) SiteRTTs(site int, fn func(c prefs.Client, ns int64)) {
	si := t.siteIdx(site)
	if si < 0 {
		return
	}
	for ci, ns := range t.cols[si] {
		if ns != rttMissing {
			fn(t.clients[ci], ns)
		}
	}
}

// newRTTTable builds the columnar table from dense per-site RTT columns:
// rows[i] belongs to siteIDs[i] and holds one cell per position of clients
// (rttMissing where unmeasured; a nil row is all missing). The client column
// is the sorted set of clients some site measured; sites keep every ID handed
// in, including sites whose row came back empty (quarantined sites still
// occupy their column). Campaign targets arrive client-sorted, but any
// position order — and a client repeated across positions, where the later
// measured cell wins — builds the same table.
func newRTTTable(siteIDs []int, clients []prefs.Client, rows [][]int64) *RTTTable {
	order := make([]int, len(siteIDs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return siteIDs[order[a]] < siteIDs[order[b]] })

	measured := make([]bool, len(clients))
	n := 0
	for _, row := range rows {
		for p, ns := range row {
			if ns != rttMissing && !measured[p] {
				measured[p] = true
				n++
			}
		}
	}
	keys := make([]prefs.Client, 0, n)
	for p, ok := range measured {
		if ok {
			keys = append(keys, clients[p])
		}
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)

	t := &RTTTable{
		sites:   make([]int, len(siteIDs)),
		clients: keys,
		cols:    make([][]int64, len(siteIDs)),
		counts:  make([]int, len(siteIDs)),
	}
	// cell[p] is position p's index in the client column, resolved once per
	// position rather than once per cell.
	cell := make([]int32, len(clients))
	for p, ok := range measured {
		if ok {
			cell[p] = int32(t.clientIdx(clients[p]))
		}
	}
	// All value columns share one backing slab: a single large allocation is
	// page-rounded by the allocator, where per-column slabs each eat the gap
	// to their size class — measurable bytes-per-client at campaign scale.
	backing := missingRTTs(len(siteIDs) * len(keys))
	for si, oi := range order {
		t.sites[si] = siteIDs[oi]
		col := backing[si*len(keys) : (si+1)*len(keys) : (si+1)*len(keys)]
		for p, ns := range rows[oi] {
			if ns == rttMissing {
				continue
			}
			if col[cell[p]] == rttMissing {
				t.counts[si]++
			}
			col[cell[p]] = ns
		}
		t.cols[si] = col
	}
	return t
}

// rttTable builds the campaign RTT table from per-site RTT columns over the
// target positions, and quarantines sites whose singleton experiment
// produced no responses at all — with fault injection enabled, the signature
// of a blacked-out site. Fault-free campaigns never quarantine: an empty row
// there is a measurement bug worth surfacing downstream, not an outage.
func (d *Discovery) rttTable(siteIDs []int, rows [][]int64) *RTTTable {
	clients := make([]prefs.Client, len(d.TB.Topo.Targets))
	for p, tg := range d.TB.Topo.Targets {
		clients[p] = prefs.Client(tg.AS)
	}
	t := newRTTTable(siteIDs, clients, rows)
	// Under a target filter an empty (or tiny) row says nothing about the
	// site; cone repairs inherit quarantine from the snapshot they patch via
	// RestoreQuarantine.
	if d.Cfg.Faults.Enabled() && d.Cfg.TargetFilter == nil {
		for _, id := range siteIDs {
			if t.Clients(id) == 0 {
				d.QuarantineSite(id, "no RTT responses in singleton experiment")
			}
		}
	}
	return t
}

// MeasureRTTs runs one singleton experiment per site (§4.5 step 1): announce
// the prefix from that site alone, then measure the RTT from every target.
func (d *Discovery) MeasureRTTs(siteIDs []int) (*RTTTable, error) {
	for _, id := range siteIDs {
		if d.TB.Site(id) == nil {
			return nil, fmt.Errorf("discovery: unknown site %d", id)
		}
	}
	sweeps := d.runBatch("rtt", len(siteIDs), func(e *Exp, i int) Sweep {
		sim := e.sim()
		d.TB.NewDeployment(sim, 0).AnnounceSites(siteIDs[i])
		return e.measure(e.prober(sim), d.TB.Site(siteIDs[i]), false, true)
	})
	d.Experiments += len(siteIDs)
	rows := make([][]int64, len(sweeps))
	for i, sw := range sweeps {
		rows[i] = sw.RTT
	}
	return d.rttTable(siteIDs, rows), nil
}

// MeasureRTTsParallel is MeasureRTTs with the §4.5 parallelization: up to
// one singleton experiment per test anycast prefix runs in the same
// experiment slot, dividing campaign wall-clock by the prefix count (the
// paper runs four prefixes to turn 1000 hours into 250). The per-site
// results match serial measurement up to race and noise effects. Slots, each
// a whole simulation, additionally fan out across the worker pool.
func (d *Discovery) MeasureRTTsParallel(siteIDs []int) (*RTTTable, error) {
	nPrefixes := len(d.TB.AnycastAddrs)
	if nPrefixes == 0 {
		return nil, fmt.Errorf("discovery: testbed has no anycast prefixes")
	}
	for _, id := range siteIDs {
		if d.TB.Site(id) == nil {
			return nil, fmt.Errorf("discovery: unknown site %d", id)
		}
	}
	nSlots := (len(siteIDs) + nPrefixes - 1) / nPrefixes
	nTargets := len(d.TB.Topo.Targets)
	group := func(slot int) []int {
		return siteIDs[slot*nPrefixes : min((slot+1)*nPrefixes, len(siteIDs))]
	}
	sweeps := d.runBatch("rttpar", nSlots, func(e *Exp, slot int) Sweep {
		sim := e.sim()
		// One prefix per site, announced simultaneously: distinct prefixes
		// never interact, so a slot carries len(group) experiments.
		for i, id := range group(slot) {
			sim.Announce(bgp.PrefixID(i), d.TB.Origin, d.TB.Site(id).TransitLink, 0)
		}
		sim.Converge()
		out := Sweep{RTT: make([]int64, 0, len(group(slot))*nTargets)}
		for i, id := range group(slot) {
			p := e.proberAt(sim, bgp.PrefixID(i), int64(i))
			out.RTT = append(out.RTT, e.measure(p, d.TB.Site(id), false, true).RTT...)
		}
		return out
	})
	d.Experiments += len(siteIDs)
	d.Slots += nSlots

	rows := make([][]int64, len(siteIDs))
	for slot, sw := range sweeps {
		if len(sw.RTT) != len(group(slot))*nTargets {
			continue // skipped slot (another shard's nonce): rows stay nil
		}
		for i := range group(slot) {
			rows[slot*nPrefixes+i] = sw.RTT[i*nTargets : (i+1)*nTargets]
		}
	}
	return d.rttTable(siteIDs, rows), nil
}

// Representatives picks the default representative site (lowest ID) for each
// transit provider, skipping quarantined sites — a provider whose every site
// is quarantined gets no representative, and ProviderPrefs degrades
// accordingly.
func (d *Discovery) Representatives() map[topology.ASN]int {
	reps := make(map[topology.ASN]int)
	for _, s := range d.TB.Sites {
		if d.IsQuarantined(s.ID) {
			continue
		}
		if cur, ok := reps[s.Transit]; !ok || s.ID < cur {
			reps[s.Transit] = s.ID
		}
	}
	return reps
}

// simultaneousPrefs runs the order-oblivious campaign over the given sites:
// every pair announced simultaneously, one experiment per pair across the
// worker pool, each answered row recorded as a strict preference for the item
// its catchment site maps to, in a store over the items the sites map to.
// Pairs touching a quarantined site are skipped — their slot (and nonce) is
// still consumed, so the remaining experiments stay aligned with the
// fault-free campaign schedule and produce identical results. Rows are read
// by target position: targets are client-sorted, so the store's O(1) tail
// append holds (an unsorted imported topology stays correct through the
// store's ordered insert).
func (d *Discovery) simultaneousPrefs(siteIDs []int, item func(siteID int) prefs.Item) (*prefs.Store, error) {
	items := make([]prefs.Item, len(siteIDs))
	for i, id := range siteIDs {
		items[i] = item(id)
	}
	store, err := prefs.NewStore(items)
	if err != nil {
		return nil, err
	}
	var pairs [][2]int
	for a := 0; a < len(siteIDs); a++ {
		for b := a + 1; b < len(siteIDs); b++ {
			pairs = append(pairs, [2]int{siteIDs[a], siteIDs[b]})
		}
	}
	skipped := func(pr [2]int) bool { return d.IsQuarantined(pr[0]) || d.IsQuarantined(pr[1]) }
	for _, pr := range pairs {
		if skipped(pr) {
			d.faultLog = append(d.faultLog,
				fmt.Sprintf("skip simultaneous pair %d-%d: quarantined site", pr[0], pr[1]))
		}
	}
	sweeps := d.runBatch("simpair", len(pairs), func(e *Exp, i int) Sweep {
		if skipped(pairs[i]) {
			return Sweep{}
		}
		sim := e.deploySimultaneous(pairs[i][0], pairs[i][1])
		return e.measure(e.prober(sim), nil, false, false)
	})
	d.Experiments += len(pairs)
	targets := d.TB.Topo.Targets
	for k, sw := range sweeps {
		a, b := item(pairs[k][0]), item(pairs[k][1])
		for p, site := range sw.Site {
			if site == 0 {
				continue
			}
			if err := store.RecordSimultaneous(prefs.Client(targets[p].AS), a, b, item(int(site))); err != nil {
				return nil, err
			}
		}
	}
	store.Compact()
	return store, nil
}

// providerItem maps a site ID to its transit provider, as a store item.
func (d *Discovery) providerItem(siteID int) prefs.Item {
	return prefs.Item(d.TB.Site(siteID).Transit)
}

// siteItem maps a site ID to itself as a store item.
func siteItem(siteID int) prefs.Item { return prefs.Item(siteID) }

// ProviderPrefs discovers each client's pairwise preferences between transit
// providers using order-controlled experiments (§4.3 "Provider-Level
// Preference Discovery"): for every provider pair, one representative site
// per provider is announced in both orders, six minutes apart.
func (d *Discovery) ProviderPrefs(reps map[topology.ASN]int) (*prefs.Store, error) {
	providers := d.TB.TransitProviders()
	items := make([]prefs.Item, len(providers))
	for i, p := range providers {
		items[i] = prefs.Item(p)
	}
	store, err := prefs.NewStore(items)
	if err != nil {
		return nil, err
	}
	type pair struct{ a, b topology.ASN }
	var pairs []pair
	var configs [][]int
	for a := 0; a < len(providers); a++ {
		for b := a + 1; b < len(providers); b++ {
			pa, pb := providers[a], providers[b]
			sa, okA := reps[pa]
			sb, okB := reps[pb]
			if !okA || !okB {
				missing := pa
				if okA {
					missing = pb
				}
				// With faults enabled a provider can lose its last live site
				// mid-campaign; degrade by skipping its pairs (recorded, not
				// silent). Fault-free, a missing representative is caller
				// error.
				if d.Cfg.Faults.Enabled() {
					d.faultLog = append(d.faultLog, fmt.Sprintf(
						"skip provider pair %d-%d: no live representative for provider %d", pa, pb, missing))
					continue
				}
				return nil, fmt.Errorf("discovery: no representative for provider %d", missing)
			}
			pairs = append(pairs, pair{pa, pb})
			configs = append(configs, []int{sa, sb}, []int{sb, sa})
		}
	}
	sweeps := d.runConfigs("config", configs, false)
	targets := d.TB.Topo.Targets
	for k, pr := range pairs {
		winAB, winBA := sweeps[2*k].Site, sweeps[2*k+1].Site
		if len(winAB) != len(winBA) {
			continue // one order was skipped (another shard's nonce)
		}
		for p, siteAB := range winAB {
			siteBA := winBA[p]
			if siteAB == 0 || siteBA == 0 {
				continue // lost probes in one experiment: skip client
			}
			if err := store.RecordOrdered(prefs.Client(targets[p].AS), prefs.Item(pr.a), prefs.Item(pr.b),
				d.providerItem(int(siteAB)), d.providerItem(int(siteBA))); err != nil {
				return nil, err
			}
		}
	}
	store.Compact()
	return store, nil
}

// ProviderPrefsNaive is the order-oblivious baseline: both representatives
// announced simultaneously, one experiment per pair, winner recorded as a
// strict preference (§5.1 "without considering the order of BGP
// announcements").
func (d *Discovery) ProviderPrefsNaive(reps map[topology.ASN]int) (*prefs.Store, error) {
	providers := d.TB.TransitProviders()
	ids := make([]int, len(providers))
	for i, p := range providers {
		ids[i] = reps[p]
	}
	return d.simultaneousPrefs(ids, d.providerItem)
}

// SitePrefs discovers each client's site-level preferences among the sites of
// one transit provider (§4.3 "Site-Level Preference Discovery"). Announcement
// order does not matter inside an AS (interior routing decides), so a single
// simultaneous experiment per pair suffices; the result is recorded as
// strict.
func (d *Discovery) SitePrefs(provider topology.ASN) (*prefs.Store, error) {
	sites := d.TB.SitesOfTransit(provider)
	if len(sites) == 0 {
		return nil, fmt.Errorf("discovery: provider %d hosts no sites", provider)
	}
	ids := make([]int, len(sites))
	for i, s := range sites {
		ids[i] = s.ID
	}
	return d.simultaneousPrefs(ids, siteItem)
}

// NaiveSitePrefs runs the flat order-oblivious baseline over arbitrary sites
// across providers: every pair announced simultaneously once — the approach
// whose total-order fraction collapses as sites are added (Figure 4c).
func (d *Discovery) NaiveSitePrefs(siteIDs []int) (*prefs.Store, error) {
	return d.simultaneousPrefs(siteIDs, siteItem)
}

// Schedule estimates the wall-clock cost of a measurement campaign (§4.5
// "Analysis"): experiments spaced two hours apart, parallelized across test
// prefixes.
type Schedule struct {
	// SingletonExperiments is one per site (RTT measurement).
	SingletonExperiments int
	// PairwiseExperiments counts BGP pairwise runs (two per provider pair
	// when order-controlled).
	PairwiseExperiments int
	// ParallelPrefixes is the number of test prefixes usable concurrently.
	ParallelPrefixes int
	// SpacingHours separates successive experiments on one prefix.
	SpacingHours float64
}

// PlanTransitOnly builds the §4.5 schedule for a network with the given
// numbers of sites and transit providers, using order-controlled pairwise
// discovery at the provider level and the RTT heuristic at the site level.
func PlanTransitOnly(sites, providers, parallelPrefixes int, orderControlled bool) Schedule {
	pairs := providers * (providers - 1) / 2
	if orderControlled {
		pairs *= 2
	}
	if parallelPrefixes <= 0 {
		parallelPrefixes = 1
	}
	return Schedule{
		SingletonExperiments: sites,
		PairwiseExperiments:  pairs,
		ParallelPrefixes:     parallelPrefixes,
		SpacingHours:         2,
	}
}

// SingletonHours returns the wall-clock hours for the singleton phase.
func (s Schedule) SingletonHours() float64 {
	return float64(s.SingletonExperiments) * s.SpacingHours / float64(s.ParallelPrefixes)
}

// PairwiseHours returns the wall-clock hours for the pairwise phase.
func (s Schedule) PairwiseHours() float64 {
	return float64(s.PairwiseExperiments) * s.SpacingHours / float64(s.ParallelPrefixes)
}

// TotalDays returns the total campaign length in days.
func (s Schedule) TotalDays() float64 {
	return (s.SingletonHours() + s.PairwiseHours()) / 24
}

// Patch builds a new table in which every client selected by cone is
// replaced by (or, when absent there, dropped in favor of) its entry in
// patch, per site. Clients outside the cone keep their RTTs from t. Neither
// input is modified — the result is a fresh copy-on-write table for
// publication through PatchCampaign.
//
// When the cone selects no client of either table — the empty churn repair —
// the receiver itself is returned instead of a deep copy; tables are
// immutable once published, so sharing the receiver is as safe as sharing
// the snapshot it came from.
func (t *RTTTable) Patch(patch *RTTTable, cone func(prefs.Client) bool) *RTTTable {
	if !slices.ContainsFunc(t.clients, cone) && !slices.ContainsFunc(patch.clients, cone) {
		return t
	}
	// One dense row per site over the union of both client columns: cone
	// clients read patch, the rest read t. The builder drops clients left
	// with no cell on any of t's sites — a cone client patch did not
	// re-measure, a patch-only client outside the cone — so the column equals
	// what a from-scratch campaign on the patched state would build, which
	// the byte-identity tests rely on.
	union := slices.Concat(t.clients, patch.clients)
	slices.Sort(union)
	union = slices.Compact(union)
	rows := make([][]int64, len(t.sites))
	patchSite := make([]int, len(t.sites))
	for si, site := range t.sites {
		rows[si] = missingRTTs(len(union))
		patchSite[si] = patch.siteIdx(site)
	}
	for p, c := range union {
		if !cone(c) {
			if ci := t.clientIdx(c); ci >= 0 {
				for si := range rows {
					rows[si][p] = t.cols[si][ci]
				}
			}
			continue
		}
		if ci := patch.clientIdx(c); ci >= 0 {
			for si, psi := range patchSite {
				if psi >= 0 {
					rows[si][p] = patch.cols[psi][ci]
				}
			}
		}
	}
	return newRTTTable(t.sites, union, rows)
}

// Export serializes the table as site → client → RTT nanoseconds.
func (t *RTTTable) Export() map[int]map[prefs.Client]int64 {
	out := make(map[int]map[prefs.Client]int64, len(t.sites))
	for si, site := range t.sites {
		row := make(map[prefs.Client]int64, t.counts[si])
		for ci, ns := range t.cols[si] {
			if ns != rttMissing {
				row[t.clients[ci]] = ns
			}
		}
		out[site] = row
	}
	return out
}

// ImportRTTTable rebuilds a table from Export's format.
func ImportRTTTable(data map[int]map[prefs.Client]int64) *RTTTable {
	siteIDs := make([]int, 0, len(data))
	var clients []prefs.Client
	for site, row := range data {
		siteIDs = append(siteIDs, site)
		for c := range row {
			clients = append(clients, c)
		}
	}
	sort.Ints(siteIDs)
	slices.Sort(clients)
	clients = slices.Compact(clients)
	rows := make([][]int64, len(siteIDs))
	for i, site := range siteIDs {
		rows[i] = make([]int64, len(clients))
		for p, c := range clients {
			ns, ok := data[site][c]
			if !ok {
				ns = rttMissing
			}
			rows[i][p] = ns
		}
	}
	return newRTTTable(siteIDs, clients, rows)
}
