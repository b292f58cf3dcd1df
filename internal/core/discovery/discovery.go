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
	// Workers bounds how many experiments run concurrently; <= 0 selects
	// exec.DefaultWorkers (ANYOPT_WORKERS or GOMAXPROCS).
	Workers int

	// Faults enables deterministic fault injection (nil or all-zero rates =
	// fault-free, byte-identical to a build without the chaos layer). With
	// faults enabled, each row of an experiment's sweep is accepted once 2
	// of up to 5 attempts agree on it exactly (see runQuorum). Attempts
	// reuse the experiment's jitter nonce and noise seed, so a fault-free
	// attempt reproduces the fault-free row exactly — which is why agreement
	// converges to it.
	Faults *fault.Config

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
	// pluralityExperiments counts experiments whose quorum ran out of
	// attempts with rows still open, which then settled on their plurality
	// value; read via PluralityExperiments.
	pluralityExperiments atomic.Uint64

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
	// probeLocked disables the quorum's skip of locked rows: every attempt
	// probes every row. Only the differential test that proves the skip
	// byte-identical sets it.
	probeLocked bool

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

// PluralityExperiments returns how many experiments settled rows that lacked
// K-of-N quorum on their plurality value — one per "accepted per-row
// plurality" fault-log line this process wrote. Like QuorumRetries it counts
// experiments run here, not ones replayed from a checkpoint. Safe from any
// goroutine.
func (d *Discovery) PluralityExperiments() uint64 { return d.pluralityExperiments.Load() }

// Exp is the context of one experiment attempt inside a batch: the jitter
// nonce fixed at submission time, a private probe counter, and — when fault
// injection is enabled — the attempt's fault injector and trace and the rows
// the quorum has already locked. Everything an experiment reads through it —
// topology, testbed, campaign config — is immutable while the batch runs, so
// experiments are safe to run on any worker in any order.
type Exp struct {
	d       *Discovery
	nonce   uint64
	attempt int
	probes  uint64
	inj     *fault.Injector
	trace   *fault.Trace
	// skip marks the rows of this attempt's sweep that earlier attempts
	// locked: measure does not probe them and they read as no answer. It is
	// the vote's own vector, read in place: the attempt finishes before the
	// next vote writes it.
	skip []bool
	// sims tracks the simulators this attempt acquired, for release back to
	// the campaign free list when the attempt completes.
	sims []*bgp.Sim
}

// skipped reports whether row r of this attempt's sweep is locked already.
func (e *Exp) skipped(r int) bool { return r < len(e.skip) && e.skip[r] }

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
			sim.FailLinkAt(fl.DownAt, fl.Link)
			sim.RestoreLinkAt(fl.UpAt, fl.Link)
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

// release returns the attempt's simulators to the campaign's free list,
// after its last use of them.
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
