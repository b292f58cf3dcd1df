// Package anyopt predicts and optimizes IP anycast performance, reproducing
// the system from "AnyOpt: Predicting and Optimizing IP Anycast Performance"
// (SIGCOMM 2021).
//
// AnyOpt discovers, with O(n²) pairwise BGP experiments instead of O(2ⁿ)
// full deployments, how every client network ranks an anycast network's
// sites; it then predicts the catchment of any site subset and solves a
// plant-location problem to find the subset with the lowest mean client
// latency.
//
// This package is the high-level facade. A System bundles a synthetic
// Internet (topology + event-driven BGP with the arrival-order tie-breaker),
// the paper's 15-site testbed, the Verfploeter-style measurement plane, and
// the discovery → prediction → optimization pipeline:
//
//	sys, _ := anyopt.New(anyopt.DefaultOptions())
//	_ = sys.RunDiscovery()
//	snap := sys.CurrentSnapshot()
//	res, _ := snap.Optimize(12, 0)
//	fmt.Println(res.Config, res.PredictedMean)
//
// The System owns the write side (campaigns, deployments); everything read
// from a finished campaign — predictions, baselines, optimization — is a
// method of the immutable Snapshot it publishes. Snapshot.OptimizeWith is the
// one optimization entry point (optimize.go).
//
// The heavy lifting lives in the internal packages: internal/bgp (routing
// simulator), internal/topology (Internet generator), internal/testbed and
// internal/probe (measurement plane), internal/core/* (preferences,
// discovery, prediction, SPLPO optimization, peering heuristic).
package anyopt

import (
	"fmt"
	"maps"
	"math/rand"
	"time"

	"anyopt/internal/core/discovery"
	"anyopt/internal/core/peering"
	"anyopt/internal/core/predict"
	"anyopt/internal/core/prefs"
	"anyopt/internal/core/splpo"
	"anyopt/internal/publish"
	"anyopt/internal/testbed"
	"anyopt/internal/topology"
)

// Client identifies a client network by its AS number.
type Client = prefs.Client

// Config is an anycast configuration: site IDs in announcement order.
type Config = predict.Config

// Options configures a System.
type Options struct {
	// Topology generates the synthetic Internet.
	Topology topology.Params
	// Testbed deploys the anycast network (defaults to the paper's Table 1).
	Testbed testbed.Options
	// Discovery drives the measurement campaign.
	Discovery discovery.Config
	// UseRTTHeuristic replaces intra-AS pairwise experiments with the §4.3
	// RTT heuristic (required for large networks).
	UseRTTHeuristic bool
}

// DefaultOptions reproduces the paper's testbed at unit-test-friendly scale.
func DefaultOptions() Options {
	return Options{
		Topology:  topology.TestParams(),
		Testbed:   testbed.Options{Seed: 1},
		Discovery: discovery.DefaultConfig(),
	}
}

// PaperScaleOptions sizes the synthetic Internet closer to the paper's
// measurement population (thousands of client networks).
func PaperScaleOptions() Options {
	o := DefaultOptions()
	o.Topology = topology.DefaultParams()
	return o
}

// InternetScaleOptions sizes the synthetic Internet at ~100k ASes with a
// power-law provider-degree distribution — the §4.5 extrapolation target.
// Campaigns at this scale want the RTT heuristic (pairwise site experiments
// are quadratic); the campaign still runs in one process.
func InternetScaleOptions() Options {
	o := DefaultOptions()
	o.Topology = topology.InternetParams()
	o.UseRTTHeuristic = true
	return o
}

// ScaleOptions resolves a scale name to its options: "test" (or "") is
// DefaultOptions, "paper" PaperScaleOptions and "internet"
// InternetScaleOptions. Any other name is an error.
func ScaleOptions(name string) (Options, error) {
	switch name {
	case "", "test":
		return DefaultOptions(), nil
	case "paper":
		return PaperScaleOptions(), nil
	case "internet":
		return InternetScaleOptions(), nil
	}
	return Options{}, fmt.Errorf("anyopt: unknown scale %q (want test, paper, or internet)", name)
}

// System is an anycast network under AnyOpt management.
//
// A System is not safe for concurrent mutation: RunDiscovery, campaign
// loading, and MeasureConfigurations drive shared campaign state. The read
// side, however, is lock-free: every completed campaign is published as an
// immutable Snapshot through a publish.Cell, and prediction and
// optimization are methods of that Snapshot (CurrentSnapshot). Concurrent
// servers (internal/api) read snapshots directly and serialize only the
// writers.
type System struct {
	Topo *topology.Topology
	TB   *testbed.Testbed
	Disc *discovery.Discovery

	// Pred mirrors CurrentSnapshot().Pred. It is kept only because the
	// frozen bench/ module reads it; everything else reads the snapshot.
	Pred *predict.Predictor

	opts Options

	// snap is the published campaign snapshot; publish is its only writer.
	snap publish.Cell[Snapshot]
}

// Snapshot is an immutable view of one completed measurement campaign: the
// two-level preference matrix, the singleton RTT table, and the chosen
// announcement order, frozen at publication time together with the
// campaign's accounting.
//
// A Snapshot is never mutated after InstallCampaign publishes it, and every
// structure it references (Predictor, preference stores, RTT table) is
// read-only after construction, so any number of goroutines may predict and
// optimize against the same Snapshot with no locking. Campaign re-discovery
// or import builds a fresh Snapshot and swaps the System's pointer —
// copy-on-write at campaign granularity, which is the natural write unit: a
// campaign is weeks of wall-clock experiments, a prediction is microseconds.
type Snapshot struct {
	// TB is the testbed the campaign measured (shared, immutable).
	TB *testbed.Testbed
	// Pred predicts catchments from the frozen preference matrix.
	Pred *predict.Predictor
	// RTT is the frozen singleton RTT table.
	RTT *discovery.RTTTable
	// AnnOrder is the frozen provider announcement order.
	AnnOrder []prefs.Item
	// Gen is the publication sequence number on the owning System (1 = first
	// campaign). Exposed for cache invalidation and metrics.
	Gen uint64
	// Experiments is the number of BGP experiments the campaign consumed.
	Experiments int
	// Quarantined records sites the campaign pulled out as dead (ID →
	// reason); nil for fault-free campaigns.
	Quarantined map[int]string
	// StaleRows maps clients whose rows predate a known routing change to
	// the generation whose campaign data they still reflect. A client absent
	// from the map is current at Gen. The churn reconciler marks a cone
	// stale the moment churn is applied (degraded-mode serving: answers stay
	// available, flagged) and clears entries only when a quorum-committed
	// repair replaces the whole row — a partially repaired row is never
	// representable. Nil when every row is current.
	StaleRows map[prefs.Client]uint64
}

// New builds the synthetic Internet and deploys the testbed on it.
func New(opts Options) (*System, error) {
	topo, err := topology.Generate(opts.Topology)
	if err != nil {
		return nil, fmt.Errorf("anyopt: generating topology: %w", err)
	}
	tb, err := testbed.New(topo, opts.Testbed)
	if err != nil {
		return nil, fmt.Errorf("anyopt: deploying testbed: %w", err)
	}
	return &System{
		Topo: topo,
		TB:   tb,
		Disc: discovery.New(tb, opts.Discovery),
		opts: opts,
	}, nil
}

// RunDiscovery executes the full measurement campaign (§4.5 steps 1–2):
// singleton RTT experiments, order-controlled provider-level pairwise
// experiments, and (unless UseRTTHeuristic) intra-AS site-level experiments.
// It then fixes the announcement order that maximizes orderable clients. The
// simulators the campaign kept warm are dropped on return: the System lives
// on to serve reads and must not hold a campaign's working set.
func (s *System) RunDiscovery() error {
	defer s.Disc.DropSims()
	pred, rtt, err := predict.NewPredictor(s.TB, s.Disc, s.opts.UseRTTHeuristic)
	if err != nil {
		return fmt.Errorf("anyopt: discovery: %w", err)
	}
	order, _ := pred.Providers.BestAnnouncementOrder(7)
	s.InstallCampaign(pred, rtt, order, s.Disc.Experiments, s.Disc.Quarantined())
	return nil
}

// InstallCampaign publishes campaign results as a fresh immutable Snapshot
// with every row current: RunDiscovery, campaign import, and the API's async
// discovery jobs all end here.
func (s *System) InstallCampaign(pred *predict.Predictor, rtt *discovery.RTTTable, annOrder []prefs.Item, experiments int, quarantined map[int]string) *Snapshot {
	return s.publish(pred, rtt, annOrder, experiments, quarantined, nil)
}

// PatchCampaign publishes a row-patched successor of the current campaign,
// as the churn reconciler builds it. The inputs are already-patched
// copy-on-write structures (prefs.Store.PatchClients,
// discovery.RTTTable.Patch). staleRows carries the rows still awaiting
// repair, keyed to the generation whose data they reflect; nil means fully
// healed.
func (s *System) PatchCampaign(pred *predict.Predictor, rtt *discovery.RTTTable, annOrder []prefs.Item, experiments int, quarantined map[int]string, staleRows map[prefs.Client]uint64) *Snapshot {
	return s.publish(pred, rtt, annOrder, experiments, quarantined, staleRows)
}

// publish is the single write point for campaign state: it freezes the
// inputs into a fresh immutable Snapshot, numbered by the cell, mirrors its
// predictor into System.Pred and publishes it. The previous snapshot is
// never touched; concurrent readers observe either it or the complete
// successor, never a mix.
//
// Writers must be externally serialized (internal/api holds a writer lock);
// readers need no coordination.
func (s *System) publish(pred *predict.Predictor, rtt *discovery.RTTTable, annOrder []prefs.Item, experiments int, quarantined map[int]string, staleRows map[prefs.Client]uint64) *Snapshot {
	s.Pred = pred
	return s.snap.Publish(func(gen uint64) *Snapshot {
		return &Snapshot{
			TB:          s.TB,
			Pred:        pred,
			RTT:         rtt,
			AnnOrder:    append([]prefs.Item(nil), annOrder...),
			Gen:         gen,
			Experiments: experiments,
			Quarantined: maps.Clone(quarantined),
			StaleRows:   maps.Clone(staleRows),
		}
	})
}

// CurrentSnapshot returns the most recently published campaign snapshot, or
// nil when no campaign has completed. Safe for any number of concurrent
// callers; the returned snapshot never changes.
func (s *System) CurrentSnapshot() *Snapshot { return s.snap.Load() }

// Options returns the options the System was built with.
func (s *System) Options() Options { return s.opts }

// requireDiscovery guards methods that need RunDiscovery first.
func (s *System) requireDiscovery() (*Snapshot, error) {
	if snap := s.snap.Load(); snap != nil {
		return snap, nil
	}
	return nil, fmt.Errorf("anyopt: RunDiscovery has not been executed")
}

// ValidateConfig rejects configurations that cannot name a deployment: empty
// configs, out-of-range site IDs, and duplicate sites. It needs only the
// testbed layout, so it works before discovery.
func (s *System) ValidateConfig(cfg Config) error {
	if len(cfg) == 0 {
		return fmt.Errorf("anyopt: empty configuration")
	}
	seen := make(map[int]bool, len(cfg))
	for _, id := range cfg {
		if id < 1 || id > len(s.TB.Sites) || s.TB.Site(id) == nil {
			return fmt.Errorf("anyopt: unknown site %d (testbed has sites 1..%d)", id, len(s.TB.Sites))
		}
		if seen[id] {
			return fmt.Errorf("anyopt: duplicate site %d in configuration", id)
		}
		seen[id] = true
	}
	return nil
}

// PredictCatchments is CurrentSnapshot().PredictCatchments with the
// discovery guard. It is the one read delegate left on System, kept because
// the frozen bench/ module calls it; new code reads the snapshot.
func (s *System) PredictCatchments(cfg Config) (map[Client]int, error) {
	snap, err := s.requireDiscovery()
	if err != nil {
		return nil, err
	}
	return snap.PredictCatchments(cfg), nil
}

// PredictCatchments predicts each client's catchment site under cfg against
// this snapshot's frozen preference matrix. Lock-free; safe concurrently.
func (sn *Snapshot) PredictCatchments(cfg Config) map[Client]int {
	return sn.Pred.All(cfg)
}

// PredictMeanRTT predicts the mean client RTT of cfg against this snapshot
// and returns the number of predictable clients. Lock-free.
func (sn *Snapshot) PredictMeanRTT(cfg Config) (time.Duration, int) {
	return sn.Pred.Sweep(cfg).MeanRTT()
}

// MeasureConfigurations deploys each configuration on its own experiment,
// fanned across the discovery executor, and measures every target's
// catchment and RTT — ground truth for validating predictions. Results come
// back in configuration order, identical to measuring one configuration per
// call.
func (s *System) MeasureConfigurations(cfgs []Config) []discovery.ConfigResult {
	deps := make([]discovery.Deployment, len(cfgs))
	for i, c := range cfgs {
		deps[i] = discovery.Deployment{Sites: c}
	}
	defer s.Disc.DropSims()
	return s.Disc.Measure(deps, true)
}

// PredictSiteLoads predicts the load each site absorbs under cfg, using the
// given per-client demands (default 1). Loads are added in ascending client
// order, so the sums are the same to the last bit on every call.
func (sn *Snapshot) PredictSiteLoads(cfg Config, loads map[Client]float64) map[int]float64 {
	sw := sn.Pred.Sweep(cfg)
	sums := make([]float64, len(sw.Sites))
	for row, at := range sw.Catch {
		if at < 0 {
			continue
		}
		l, ok := loads[sn.Pred.Providers.ClientAt(row)]
		if !ok {
			l = 1
		}
		sums[at] += l
	}
	out := make(map[int]float64, len(sums))
	for at, site := range sw.Sites {
		if sw.Counts[at] > 0 {
			out[site] += sums[at]
		}
	}
	return out
}

// GreedyConfig returns the baseline configuration of the k sites with the
// lowest mean unicast RTT (§5.3's "k-Greedy").
func (sn *Snapshot) GreedyConfig(k int) (Config, error) {
	in, _ := sn.Pred.BuildInstance(sn.AnnOrder)
	a, err := splpo.GreedyByCost(in, k)
	if err != nil {
		return nil, err
	}
	return sn.Pred.SiteSetToConfig(a.Open, sn.AnnOrder), nil
}

// RandomConfig returns a uniformly random k-site configuration in the
// current campaign's announcement order.
func (s *System) RandomConfig(k int, rng *rand.Rand) (Config, error) {
	snap, err := s.requireDiscovery()
	if err != nil {
		return nil, err
	}
	n := len(s.TB.Sites)
	return snap.Pred.SiteSetToConfig(splpo.SiteSetOf(n, rng.Perm(n)[:k]...), snap.AnnOrder), nil
}

// AllSitesConfig returns the configuration enabling every site, in the
// current campaign's announcement order when there is one.
func (s *System) AllSitesConfig() Config {
	cfg := make(Config, len(s.TB.Sites))
	for i, site := range s.TB.Sites {
		cfg[i] = site.ID
	}
	if snap := s.CurrentSnapshot(); snap != nil {
		return snap.Pred.SiteSetToConfig(predict.ConfigToSiteSet(len(cfg), cfg), snap.AnnOrder)
	}
	return cfg
}

// AllPeerLinks lists every peering link of the testbed in site order.
func (s *System) AllPeerLinks() []topology.LinkID {
	var out []topology.LinkID
	for _, site := range s.TB.Sites {
		out = append(out, site.PeerLinks...)
	}
	return out
}

// OnePassPeering runs the §4.4 one-pass campaign over the given peering
// links on top of base.
func (s *System) OnePassPeering(base Config, peers []topology.LinkID) *peering.Result {
	return peering.OnePass(s.Disc, base, peers)
}

// Experiments reports the number of BGP experiments run so far.
func (s *System) Experiments() int { return s.Disc.Experiments }
