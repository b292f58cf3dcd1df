package main

// The traced pass: each workload re-driven through the same public calls
// the facade makes, every call into a module wrapped in a span and counts
// taken at the same boundaries. Spans come from this file only; spans
// inside the program are a later change.

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"anyopt"
	"anyopt/internal/api"
	"anyopt/internal/bgp"
	"anyopt/internal/campaign"
	"anyopt/internal/core/discovery"
	"anyopt/internal/core/predict"
	"anyopt/internal/core/prefs"
	"anyopt/internal/core/splpo"
	"anyopt/internal/fault"
	"anyopt/internal/netproto"
	"anyopt/internal/probe"
	"anyopt/internal/reconcile"
	"anyopt/internal/testbed"
	"anyopt/internal/topology"
)

// layerDef declares a per-layer metric. A traced run reports every one of
// them; a layer the workload does not exercise reads 0.
type layerDef struct{ Name, Unit, Better string }

var perLayer = []layerDef{
	// Campaign phases: every workload runs one phased campaign (the
	// workload itself, or the seed campaign of serve_mixed / churn_heal).
	{"topology.generate_ms", "ms", "lower"},
	{"testbed.new_ms", "ms", "lower"},
	{"discovery.rtt_phase_ms", "ms", "lower"},
	{"discovery.provider_phase_ms", "ms", "lower"},
	{"discovery.site_phase_ms", "ms", "lower"},
	{"discovery.alloc_mb", "MB", "lower"},
	{"discovery.experiments", "count", "lower"},
	{"discovery.probes", "count", "lower"},
	{"discovery.simpool_hit_ratio", "ratio", "higher"},
	{"discovery.quorum_retries", "count", "lower"},
	{"discovery.quarantined_sites", "count", "lower"},
	{"prefs.order_search_ms", "ms", "lower"},
	{"prefs.order_search_alloc_mb", "MB", "lower"},
	{"prefs.order_search_allocs", "count", "lower"},
	{"anyopt.install_ms", "ms", "lower"},
	{"campaign.save_ms", "ms", "lower"},
	{"campaign.save_bytes", "B", "lower"},
	{"campaign.load_ms", "ms", "lower"},
	{"campaign.journal_record_ms", "ms", "lower"},
	{"campaign.journal_records", "count", "lower"},
	{"campaign.journal_bytes", "B", "lower"},
	{"exec.parallel_speedup", "ratio", "higher"},
	// One experiment assembled from public calls, every workload.
	{"bgp.reset_ms", "ms", "lower"},
	{"bgp.converge_ms", "ms", "lower"},
	{"bgp.routes_per_experiment", "count", "lower"},
	{"netsim.events_per_experiment", "count", "lower"},
	{"netsim.ns_per_event", "ns", "lower"},
	{"probe.sweep_ms", "ms", "lower"},
	{"probe.ns_per_target", "ns", "lower"},
	{"probe.probes_per_target", "count", "lower"},
	{"netproto.echo_codec_ns", "ns", "lower"},
	{"netproto.echo_codec_allocs", "count", "lower"},
	// Serving, serve_mixed only.
	{"predict.catchments_ms", "ms", "lower"},
	{"predict.mean_rtt_ms", "ms", "lower"},
	{"predict.allocs_per_client", "count", "lower"},
	{"predict.build_instance_ms", "ms", "lower"},
	{"splpo.solve_ms", "ms", "lower"},
	{"splpo.subsets_per_ms", "1/ms", "higher"},
	{"api.predict_handler_ms", "ms", "lower"},
	{"api.predict_overhead_ms", "ms", "lower"},
	{"api.predict_allocs_per_req", "count", "lower"},
	{"api.predict_alloc_kb_per_req", "KB", "lower"},
	{"api.optimize_handler_ms", "ms", "lower"},
	{"api.optimize_allocs_per_req", "count", "lower"},
	{"api.predict_mixed_p50_ms", "ms", "lower"},
	{"api.predict_mixed_p95_ms", "ms", "lower"},
	{"api.optimize_mixed_p50_ms", "ms", "lower"},
	{"api.predict_contention_ratio", "ratio", "lower"},
	// Churn, churn_heal only.
	{"fault.plan_apply_ms", "ms", "lower"},
	{"reconcile.cone_ms", "ms", "lower"},
	{"reconcile.cone_clients", "count", "lower"},
	{"reconcile.probed_frac", "ratio", "lower"},
	{"reconcile.repair_ms", "ms", "lower"},
	{"reconcile.repair_self_ms", "ms", "lower"},
	{"reconcile.patch_publish_ms", "ms", "lower"},
	{"reconcile.walker_refresh_ms", "ms", "lower"},
	{"api.churn_overhead_ms", "ms", "lower"},
	// Process and tracing, every workload.
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"runtime.num_gc", "count", "lower"},
	{"runtime.peak_rss_mb", "MB", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// Sample sizes of the traced pass: fixed counts, so its numbers keep their
// sample counts as the code gets faster.
const (
	tracedConfigs     = 8 // assembled experiments
	codecRounds       = 20000
	tracedPredicts    = 100 // single client, handler and direct side by side
	tracedOptimizes   = 20
	tracedDirectHeals = 3 // churn events driven through the reconcile calls
	tracedAPIHeals    = 2 // further events through POST /v1/churn?sync=1
)

// runTraced is the traced pass of one workload.
func runTraced(r *run, name string) {
	tr := r.cfg.tracer
	root := tr.start(0, name)
	sys := tracedCampaign(r, root, name == "campaign_faulty", name == "campaign_paper")
	if sys != nil {
		tracedExperiment(r, root, sys)
		switch name {
		case "serve_mixed":
			tracedServe(r, root, sys)
		case "churn_heal":
			tracedChurn(r, root, sys)
		}
	}
	tr.end(root)

	m := memStats()
	r.set("runtime.gc_cpu_frac", "ratio", m.GCCPUFraction)
	r.set("runtime.num_gc", "count", float64(m.NumGC))
	r.set("runtime.peak_rss_mb", "MB", peakRSSMB())
	for _, d := range perLayer {
		v, ok := r.metrics[d.Name]
		if !ok {
			r.set(d.Name, d.Unit, 0)
		}
		r.cfg.logf("  %-30s %14.4f %s", d.Name, v.Value, d.Unit)
	}
}

// setMedian reports the median duration of the spans called span.
func (r *run) setMedian(metric, span string) float64 {
	v := median(r.cfg.tracer.durationsMS(span))
	r.set(metric, "ms", v)
	return v
}

// journalSpans decorates a checkpoint journal with one span per Record, as
// a child of the campaign phase in progress.
type journalSpans struct {
	*campaign.Checkpoint
	tr    *tracer
	phase int
}

func (j *journalSpans) Record(nonce uint64, ent discovery.JournalEntry) error {
	id := j.tr.start(j.phase, "campaign.journal_record")
	defer j.tr.end(id)
	return j.Checkpoint.Record(nonce, ent)
}

// untracedCampaign times one plain RunDiscovery on a fresh system, the
// traced pass's reference, and returns its duration and digest. The system
// is dropped on return: the phased campaign must find the heap as this one
// did, because with a live heap of a few MB the collector's pace, and with
// it the campaign's speed, follows whatever else is reachable.
func untracedCampaign(r *run, faulty bool, workers int) (time.Duration, string) {
	sys, journal, err := r.campaignSystem(faulty, 0)
	if !r.check(err == nil, "building system: %v", err) {
		return 0, ""
	}
	sys.Disc.SetWorkers(workers)
	runtime.GC()
	t := time.Now()
	err = sys.RunDiscovery()
	d := time.Since(t)
	if journal != "" {
		os.Remove(journal)
	}
	return d, r.checkCampaign(sys, err)
}

// tracedCampaign runs one untraced campaign as the reference, then the same
// campaign phase by phase — the calls RunDiscovery makes — and returns the
// phased system. The two must save identical bytes.
func tracedCampaign(r *run, root int, faulty, speedup bool) *anyopt.System {
	tr := r.cfg.tracer
	opts, err := r.cfg.options(faulty)
	if !r.check(err == nil, "options: %v", err) {
		return nil
	}

	// A process's first campaign runs ≈10% slower than its later ones. Where
	// the reference feeds a ratio of two campaigns, a discarded campaign
	// goes first.
	var serial time.Duration
	var serialSHA string
	if speedup {
		untracedCampaign(r, faulty, campaignWorkers)
		serial, serialSHA = untracedCampaign(r, faulty, 1)
	}
	untraced, want := untracedCampaign(r, faulty, campaignWorkers)
	if want == "" {
		return nil
	}
	if speedup {
		r.check(serialSHA == want, "campaign at 1 worker saved %s, at %d workers %s", serialSHA, campaignWorkers, want)
		r.set("exec.parallel_speedup", "ratio", serial.Seconds()/untraced.Seconds())
		r.cfg.logf("  workers=1 %.3fs / workers=%d %.3fs", serial.Seconds(), campaignWorkers, untraced.Seconds())
	}

	// The two layers below anyopt.New, timed on a throwaway world: the
	// facade builds its own.
	var topo *topology.Topology
	d := tr.timed(root, "topology.generate", func() { topo, err = topology.Generate(opts.Topology) })
	if !r.check(err == nil, "topology.Generate: %v", err) {
		return nil
	}
	r.set("topology.generate_ms", "ms", ms(d))
	d = tr.timed(root, "testbed.new", func() { _, err = testbed.New(topo, opts.Testbed) })
	r.check(err == nil, "testbed.New: %v", err)
	r.set("testbed.new_ms", "ms", ms(d))

	sys, err := anyopt.New(opts)
	if !r.check(err == nil, "anyopt.New: %v", err) {
		return nil
	}
	var js *journalSpans
	journal := filepath.Join(r.cfg.tmp, "journal-traced.ckpt")
	if faulty {
		ck, err := campaign.NewCheckpoint(journal)
		if !r.check(err == nil, "NewCheckpoint: %v", err) {
			return nil
		}
		js = &journalSpans{Checkpoint: ck, tr: tr}
		sys.Disc.SetJournal(js)
		defer os.Remove(journal)
	}
	phase := func(name string, fn func() error) time.Duration {
		id := tr.start(root, name)
		if js != nil {
			js.phase = id
		}
		err := fn()
		d := tr.end(id)
		r.check(err == nil, "%s: %v", name, err)
		return d
	}

	var (
		disc  = sys.Disc
		rtt   *discovery.RTTTable
		prov  *prefs.Store
		sites = map[topology.ASN]*prefs.Store{}
		order []prefs.Item
	)
	runtime.GC()
	m0 := memStats()
	phases := phase("discovery.rtt_phase", func() (err error) {
		all := make([]int, len(sys.TB.Sites))
		for i, s := range sys.TB.Sites {
			all[i] = s.ID
		}
		rtt, err = disc.MeasureRTTs(all)
		return err
	})
	r.set("discovery.rtt_phase_ms", "ms", ms(phases))
	d = phase("discovery.provider_phase", func() (err error) {
		prov, err = disc.ProviderPrefs(disc.Representatives())
		return err
	})
	r.set("discovery.provider_phase_ms", "ms", ms(d))
	phases += d
	d = phase("discovery.site_phase", func() error {
		for _, p := range sys.TB.TransitProviders() {
			if len(sys.TB.SitesOfTransit(p)) < 2 {
				continue
			}
			st, err := disc.SitePrefs(p)
			if err != nil {
				return err
			}
			sites[p] = st
		}
		return nil
	})
	r.set("discovery.site_phase_ms", "ms", ms(d))
	phases += d
	if rtt == nil || prov == nil {
		return nil
	}
	m1 := memStats()
	d = tr.timed(root, "prefs.order_search", func() { order, _ = prov.BestAnnouncementOrder(7) })
	m2 := memStats()
	r.set("prefs.order_search_ms", "ms", ms(d))
	phases += d
	pred := &predict.Predictor{TB: sys.TB, Providers: prov, Sites: sites, RTT: rtt}
	d = tr.timed(root, "anyopt.install", func() {
		sys.InstallCampaign(pred, rtt, order, disc.Experiments, disc.Quarantined())
	})
	r.set("anyopt.install_ms", "ms", ms(d))
	phases += d

	r.set("discovery.alloc_mb", "MB", float64(m1.TotalAlloc-m0.TotalAlloc)/mb)
	r.set("discovery.experiments", "count", float64(disc.Experiments))
	r.set("discovery.probes", "count", float64(disc.ProbesSent))
	hits, misses := disc.SimPoolStats()
	r.set("discovery.simpool_hit_ratio", "ratio", float64(hits)/float64(hits+misses))
	r.set("discovery.quorum_retries", "count", float64(disc.QuorumRetries()))
	r.set("discovery.quarantined_sites", "count", float64(len(disc.QuarantinedSites())))
	r.set("prefs.order_search_alloc_mb", "MB", float64(m2.TotalAlloc-m1.TotalAlloc)/mb)
	r.set("prefs.order_search_allocs", "count", float64(m2.Mallocs-m1.Mallocs))
	if js != nil {
		r.setMedian("campaign.journal_record_ms", "campaign.journal_record")
		r.set("campaign.journal_records", "count", float64(js.Len()))
		if info, err := os.Stat(journal); r.check(err == nil, "journal: %v", err) {
			r.set("campaign.journal_bytes", "B", float64(info.Size()))
		}
	}
	r.set("trace.overhead_frac", "ratio", (phases-untraced).Seconds()/untraced.Seconds())
	r.cfg.logf("  phase spans sum %.3fs, untraced RunDiscovery %.3fs", phases.Seconds(), untraced.Seconds())

	// The codec is off the timed path today; recorded so a change to it shows.
	var buf bytes.Buffer
	d = tr.timed(root, "campaign.save", func() { err = campaign.Save(&buf, sys) })
	r.check(err == nil, "campaign.Save: %v", err)
	r.set("campaign.save_ms", "ms", ms(d))
	r.set("campaign.save_bytes", "B", float64(buf.Len()))
	got := hashHex(buf.Bytes())
	r.check(got == want, "traced campaign saved %s, untraced campaign %s", got, want)
	loaded, err := r.cfg.newSystem(false)
	if !r.check(err == nil, "anyopt.New: %v", err) {
		return sys
	}
	d = tr.timed(root, "campaign.load", func() { err = campaign.Load(bytes.NewReader(buf.Bytes()), loaded) })
	r.check(err == nil, "campaign.Load: %v", err)
	r.set("campaign.load_ms", "ms", ms(d))
	got, err = digest(loaded)
	r.check(err == nil && got == want, "campaign saved, loaded and saved again is %s, was %s", got, want)

	return sys
}

// tracedExperiment assembles single experiments from the public calls a
// campaign experiment makes — reset a warm simulator, announce and converge,
// sweep every target for its catchment — which is as close as code outside
// internal/core/discovery gets to the bgp, netsim, probe and netproto layers.
func tracedExperiment(r *run, root int, sys *anyopt.System) {
	tr := r.cfg.tracer
	dcfg := sys.Options().Discovery
	tb, targets := sys.TB, sys.Topo.Targets
	list := requestList(r.cfg.seed, 0, requestBlock*tracedConfigs, len(tb.Sites))
	var (
		sim                           *bgp.Sim
		routes, events, probes, swept float64
		convergeNS                    float64
		n                             int
	)
	for _, q := range list {
		if q.optimize || n == tracedConfigs {
			continue
		}
		simCfg := dcfg.SimCfg
		simCfg.JitterNonce = uint64(n)
		if sim == nil {
			sim = bgp.New(sys.Topo, simCfg)
		} else {
			tr.timed(root, "bgp.reset", func() { sim.Reset(simCfg) })
		}
		for _, id := range sys.Topo.DownLinks() {
			sim.FailLink(id)
		}
		dep := tb.NewDeployment(sim, 0)
		dep.Spacing = dcfg.Spacing
		steps := sim.Engine.Steps()
		d := tr.timed(root, "bgp.converge", func() { dep.AnnounceSites(q.config...) })
		convergeNS += float64(d)
		events += float64(sim.Engine.Steps() - steps)
		routes += float64(sim.Stats(0).Routes)

		fabric := probe.NewSimFabric(tb, sim, 0, probe.DefaultNoise(dcfg.NoiseSeed+int64(n)*7919))
		p := probe.New(fabric, probe.DefaultConfig(tb.OrchAddr, tb.AnycastAddrs[0]), sim.Engine.Now())
		answered := 0
		tr.timed(root, "probe.sweep", func() {
			for _, tg := range targets {
				p.BeginTarget(uint64(tg.AS))
				if key, err := p.CatchmentRetry(tg.Addr, 3); err == nil && tb.SiteByTunnelKey(key) != nil {
					answered++
				}
			}
		})
		r.check(answered*10 >= len(targets)*9, "config %v: %d of %d targets answered the sweep", q.config, answered, len(targets))
		probes += float64(p.Sent)
		swept += float64(len(targets))
		n++
	}
	r.setMedian("bgp.reset_ms", "bgp.reset")
	r.setMedian("bgp.converge_ms", "bgp.converge")
	r.set("bgp.routes_per_experiment", "count", routes/float64(n))
	r.set("netsim.events_per_experiment", "count", events/float64(n))
	r.set("netsim.ns_per_event", "ns", convergeNS/events)
	sweepMS := r.setMedian("probe.sweep_ms", "probe.sweep")
	r.set("probe.ns_per_target", "ns", sweepMS*1e6/float64(len(targets)))
	r.set("probe.probes_per_target", "count", probes/swept)

	m0 := memStats()
	d := tr.timed(root, "netproto.echo_codec", func() {
		err := echoCodec(tb, targets[0], codecRounds)
		r.check(err == nil, "echo codec: %v", err)
	})
	m1 := memStats()
	r.set("netproto.echo_codec_ns", "ns", float64(d)/codecRounds)
	r.set("netproto.echo_codec_allocs", "count", float64(m1.Mallocs-m0.Mallocs)/codecRounds)
}

// echoCodec marshals and unmarshals one GRE-encapsulated ICMP echo — the
// packet an RTT probe sends through a site's tunnel — rounds times.
func echoCodec(tb *testbed.Testbed, tg topology.Target, rounds int) error {
	site := tb.Sites[0]
	var ts [8]byte
	var echoBuf, innerBuf, greBuf, pkt []byte
	for i := 0; i < rounds; i++ {
		echo := netproto.ICMPEcho{Type: netproto.ICMPEchoRequest, ID: 0x4f50, Seq: uint16(i), Payload: ts[:]}
		echo.EncodeTimestamp(time.Duration(i))
		echoBuf = echo.AppendMarshal(echoBuf[:0])
		inner := netproto.IPv4{TTL: 64, Protocol: netproto.ProtoICMP, Src: tb.AnycastAddrs[0], Dst: tg.Addr}
		var err error
		if innerBuf, err = inner.AppendMarshal(innerBuf[:0], echoBuf); err != nil {
			return err
		}
		gre := netproto.GRE{Protocol: netproto.EtherTypeIPv4, KeyPresent: true, Key: site.TunnelKey}
		greBuf = gre.AppendMarshal(greBuf[:0], innerBuf)
		outer := netproto.IPv4{TTL: 64, Protocol: netproto.ProtoGRE, Src: tb.OrchAddr, Dst: site.TunnelAddr}
		if pkt, err = outer.AppendMarshal(pkt[:0], greBuf); err != nil {
			return err
		}

		var gotOuter, gotInner netproto.IPv4
		var gotGRE netproto.GRE
		var gotEcho netproto.ICMPEcho
		payload, err := gotOuter.Unmarshal(pkt)
		if err == nil {
			payload, err = gotGRE.Unmarshal(payload)
		}
		if err == nil {
			payload, err = gotInner.Unmarshal(payload)
		}
		if err == nil {
			err = gotEcho.Unmarshal(payload)
		}
		if err != nil {
			return err
		}
		if sent, err := gotEcho.DecodeTimestamp(); err != nil || sent != time.Duration(i) || gotGRE.Key != site.TunnelKey {
			return fmt.Errorf("round %d decoded timestamp %v key %d: %v", i, sent, gotGRE.Key, err)
		}
	}
	return nil
}

// tracedServe splits the serving path: a single client sends the first
// requests of the list to the handler and makes the calls behind the handler
// directly, side by side; then two clients re-drive the mix with one span
// per request.
func tracedServe(r *run, root int, sys *anyopt.System) {
	tr := r.cfg.tracer
	h := api.NewServer(sys).Handler()
	snap := sys.CurrentSnapshot()
	list := requestList(r.cfg.seed, 0, requestListLen, len(sys.TB.Sites))
	closedLoop(h, list, 0, 0, func(sent int) bool { return sent < warmupRequests }, nil, 0)

	var (
		predicts, optimizes                    int
		predictAllocs, predictKB, clientAllocs []float64
		optimizeAllocs, subsetsPerMS           []float64
	)
	for _, q := range list {
		switch {
		case !q.optimize && predicts < tracedPredicts:
			predicts++
			m0 := memStats()
			tr.timed(root, "api.predict", func() {
				code, _, _ := call(h, http.MethodGet, q.url(), "")
				r.check(code == http.StatusOK, "%s: status %d", q.url(), code)
			})
			m1 := memStats()
			var clients int
			tr.timed(root, "predict.catchments", func() { clients = len(snap.PredictCatchments(q.config)) })
			m2 := memStats()
			tr.timed(root, "predict.mean_rtt", func() { snap.PredictMeanRTT(q.config) })
			predictAllocs = append(predictAllocs, float64(m1.Mallocs-m0.Mallocs))
			predictKB = append(predictKB, float64(m1.TotalAlloc-m0.TotalAlloc)/1024)
			clientAllocs = append(clientAllocs, float64(m2.Mallocs-m1.Mallocs)/float64(clients))
		case q.optimize && optimizes < tracedOptimizes:
			optimizes++
			m0 := memStats()
			tr.timed(root, "api.optimize", func() {
				code, _, _ := call(h, http.MethodGet, q.url(), "")
				r.check(code == http.StatusOK, "%s: status %d", q.url(), code)
			})
			m1 := memStats()
			optimizeAllocs = append(optimizeAllocs, float64(m1.Mallocs-m0.Mallocs))
			var in *splpo.Instance
			tr.timed(root, "predict.build_instance", func() { in, _ = snap.Pred.BuildInstance(snap.AnnOrder) })
			var evaluated int
			d := tr.timed(root, "splpo.solve", func() {
				var err error
				_, evaluated, err = splpo.Exhaustive(in, splpo.Options{ExactSize: q.k, MaxSubsets: optimizeBudget})
				r.check(err == nil, "splpo.Exhaustive: %v", err)
			})
			subsetsPerMS = append(subsetsPerMS, float64(evaluated)/ms(d))
		}
	}
	alone := r.setMedian("api.predict_handler_ms", "api.predict")
	direct := r.setMedian("predict.catchments_ms", "predict.catchments") + r.setMedian("predict.mean_rtt_ms", "predict.mean_rtt")
	r.set("api.predict_overhead_ms", "ms", alone-direct)
	r.set("api.predict_allocs_per_req", "count", median(predictAllocs))
	r.set("api.predict_alloc_kb_per_req", "KB", median(predictKB))
	r.set("predict.allocs_per_client", "count", median(clientAllocs))
	r.setMedian("api.optimize_handler_ms", "api.optimize")
	r.set("api.optimize_allocs_per_req", "count", median(optimizeAllocs))
	r.setMedian("predict.build_instance_ms", "predict.build_instance")
	r.setMedian("splpo.solve_ms", "splpo.solve")
	r.set("splpo.subsets_per_ms", "1/ms", median(subsetsPerMS))

	m := mixedLoad(r, &serving{sys: sys, handler: h}, r.cfg.budget/3, tr, root)
	mixedP50 := median(m.predictMS)
	r.set("api.predict_mixed_p50_ms", "ms", mixedP50)
	r.set("api.predict_mixed_p95_ms", "ms", percentile(m.predictMS, 95))
	r.set("api.optimize_mixed_p50_ms", "ms", median(m.optimizeMS))
	r.set("api.predict_contention_ratio", "ratio", mixedP50/alone)
	r.cfg.logf("  predict p50 %.3f ms at %d mixed clients (n=%d) / %.3f ms alone (n=%d)", mixedP50, serveClients, len(m.predictMS), alone, predicts)
}

// tracedChurn drives churn events through the calls POST /v1/churn makes,
// one span each, then further events through the handler to price what the
// handler adds.
func tracedChurn(r *run, root int, sys *anyopt.System) {
	tr := r.cfg.tracer
	dcfg := sys.Options().Discovery
	walker := reconcile.NewCatchmentWalker(sys.TB, dcfg.SimCfg)
	tr.timed(root, "reconcile.walker_refresh", func() { walker.Refresh() })

	var direct, coneClients, probedFrac, repairSelf []float64
	for i := 0; i < tracedDirectHeals; i++ {
		ev := tr.start(root, "heal "+strconv.Itoa(i))
		var (
			delta *fault.RoutingDelta
			cone  *reconcile.Cone
			res   *reconcile.RepairResult
			err   error
		)
		tr.timed(ev, "fault.plan_apply", func() {
			delta, err = fault.ApplyChurn(sys.Topo, fault.PlanChurn(sys.Topo, churnSeed(r.cfg.seed, i), 1, nil))
		})
		if !r.check(err == nil, "churn event %d: %v", i, err) {
			return
		}
		tr.timed(ev, "reconcile.cone", func() {
			cone = reconcile.StructuralCone(sys.Topo, sys.TB.Origin, delta)
			walker.ExpandCone(cone)
		})
		publish := tr.start(ev, "reconcile.patch_publish")
		cur := sys.CurrentSnapshot()
		marked := sys.PatchCampaign(cur.Pred, cur.RTT, cur.AnnOrder, cur.Experiments, cur.Quarantined,
			reconcile.MarkStale(cur.StaleRows, cone, cur.Gen))
		tr.end(publish)
		repair := tr.timed(ev, "reconcile.repair", func() {
			res, err = reconcile.Repair(sys.TB, marked, cone, reconcile.RepairConfig{Discovery: dcfg})
		})
		if !r.check(err == nil, "repairing event %d: %v", i, err) {
			return
		}
		publish = tr.start(ev, "reconcile.patch_publish")
		healed := sys.PatchCampaign(res.Pred, res.RTT, res.AnnOrder, res.Experiments, res.Quarantined,
			reconcile.ClearRepaired(marked.StaleRows, cone, marked.Gen))
		tr.end(publish)
		tr.timed(ev, "reconcile.walker_refresh", func() { walker.Refresh() })
		direct = append(direct, ms(tr.end(ev)))
		r.check(len(healed.StaleRows) == 0, "event %d left %d stale rows", i, len(healed.StaleRows))

		// Repair ends with the announcement-order search over the patched
		// store; timed again here, outside the event, to split it out.
		search := tr.timed(root, "prefs.order_search", func() { res.Pred.Providers.BestAnnouncementOrder(7) })
		repairSelf = append(repairSelf, ms(repair-search))
		coneClients = append(coneClients, float64(len(cone.Clients)))
		probedFrac = append(probedFrac, float64(res.ProbedTargets)/float64(res.TotalTargets))
	}
	r.setMedian("fault.plan_apply_ms", "fault.plan_apply")
	r.setMedian("reconcile.cone_ms", "reconcile.cone")
	r.set("reconcile.cone_clients", "count", median(coneClients))
	r.set("reconcile.probed_frac", "ratio", median(probedFrac))
	r.setMedian("reconcile.repair_ms", "reconcile.repair")
	r.set("reconcile.repair_self_ms", "ms", median(repairSelf))
	r.set("reconcile.patch_publish_ms", "ms", 2*median(tr.durationsMS("reconcile.patch_publish")))
	r.setMedian("reconcile.walker_refresh_ms", "reconcile.walker_refresh")

	h := api.NewServer(sys).Handler()
	var viaAPI []float64
	for i := tracedDirectHeals; i < tracedDirectHeals+tracedAPIHeals; i++ {
		tr.timed(root, "api.churn", func() {
			_, d := heal(r, h, i)
			viaAPI = append(viaAPI, ms(d))
		})
	}
	r.set("api.churn_overhead_ms", "ms", median(viaAPI)-median(direct))
	r.cfg.logf("  heal through the handler %.1f ms, through the reconcile calls %.1f ms", median(viaAPI), median(direct))
	verifyHealed(r, sys, tracedDirectHeals+tracedAPIHeals)
}

// peakRSSMB is the process's resident-set high-water mark (what /proc calls
// VmHWM) as getrusage reports it on Linux, in KB; 0 if the call fails.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
