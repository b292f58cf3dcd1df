package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"time"

	"anyopt"
	"anyopt/internal/campaign"
	"anyopt/internal/core/prefs"
	"anyopt/internal/fault"
	"anyopt/internal/reconcile"
)

// minHeals is the fewest churn events a run heals whatever the budget.
const minHeals = 3

// churnSeed is the plan seed of a run's i-th churn event; the event itself
// is drawn by fault.PlanChurn against the topology as churned so far.
func churnSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// churnBody is the i-th POST /v1/churn body: one event of any kind.
func churnBody(seed int64, i int) string {
	return fmt.Sprintf(`{"seed": %d, "count": 1}`, churnSeed(seed, i))
}

// healReply is the part of the sync churn reply the workload checks.
type healReply struct {
	Delta       string `json:"delta"`
	ConeClients int    `json:"cone_clients"`
	Probed      int    `json:"last_probed_targets"`
	Health      string `json:"health"`
	StaleRows   int    `json:"stale_rows"`
}

// heal posts the i-th churn event with ?sync=1 and checks that the reply
// reports a healed campaign: the round trip covers apply → cone → stale
// marks published → repair → healed snapshot published.
func heal(r *run, h http.Handler, i int) (healReply, time.Duration) {
	code, body, d := call(h, http.MethodPost, "/v1/churn?sync=1", churnBody(r.cfg.seed, i))
	var reply healReply
	err := json.Unmarshal(body, &reply)
	r.check(err == nil && code == http.StatusAccepted && reply.Health == "fresh" && reply.StaleRows == 0,
		"heal %d: status %d, health %q, %d stale rows, decode error %v: %.200s", i, code, reply.Health, reply.StaleRows, err, body)
	return reply, d
}

// runChurn is the churn_heal workload: sequential synchronous churn heals,
// cumulative on one topology, until the budget is spent.
func runChurn(r *run) {
	sv, setupS := setUpServing(r)
	if sv == nil {
		return
	}
	st := opStats{setupS: setupS}
	runtime.GC()
	heals := 0
	for start := time.Now(); heals < minHeals || time.Since(start) < r.cfg.budget; heals++ {
		m0 := memStats()
		reply, d := heal(r, sv.handler, heals)
		m1 := memStats()
		st.latMS = append(st.latMS, ms(d))
		st.wall += d
		st.allocMB += float64(m1.TotalAlloc-m0.TotalAlloc) / mb
		r.cfg.logf("  heal %d: %.3fs %s, cone %d clients, %d probed", heals, d.Seconds(), reply.Delta, reply.ConeClients, reply.Probed)
	}
	st.liveMB = liveHeapMB()
	r.cfg.logf("  in-process: POST /v1/churn?sync=1 into the handler, no socket; heal min %.3fs max %.3fs",
		slices.Min(st.latMS)/1e3, slices.Max(st.latMS)/1e3)
	r.endToEnd(st)

	t := time.Now()
	verifyHealed(r, sv.sys, heals)
	r.cfg.logf("  verify_s %.2f (outside every metric)", time.Since(t).Seconds())
}

// verifyHealed compares the healed campaign with a from-scratch campaign on
// an identically churned topology. Every client in the last event's
// structural cone was re-measured on the final topology, so its rows must be
// exactly the from-scratch rows (sites a campaign quarantined aside: a
// repair inherits the quarantine set, a from-scratch campaign detects dead
// sites anew). Over all clients the reconciler's design goal is byte-identity
// and most seeds reach it, but at paper scale a link-down event can change
// rows of clients outside the cone the reconciler infers, so the
// whole-campaign difference is reported, not failed.
func verifyHealed(r *run, healed *anyopt.System, events int) {
	ref, err := r.cfg.newSystem(false)
	if !r.check(err == nil, "building reference system: %v", err) {
		return
	}
	var delta *fault.RoutingDelta
	for i := 0; i < events; i++ {
		delta, err = fault.ApplyChurn(ref.Topo, fault.PlanChurn(ref.Topo, churnSeed(r.cfg.seed, i), 1, nil))
		if !r.check(err == nil, "replaying churn event %d: %v", i, err) {
			return
		}
	}
	if err := ref.RunDiscovery(); !r.check(err == nil, "reference campaign: %v", err) {
		return
	}
	got, want := healed.CurrentSnapshot(), ref.CurrentSnapshot()
	cone := reconcile.StructuralCone(ref.Topo, ref.TB.Origin, delta)
	skipProvider, skipSite := quarantineSkips(ref.TB, want.Quarantined, got.Quarantined)

	diff, _, err := prefDrift(want.Pred, got.Pred,
		func(rel prefs.DumpedRelation) bool { return !cone.Clients[rel.Client] || skipProvider(rel) },
		func(rel prefs.DumpedRelation) bool { return !cone.Clients[rel.Client] || skipSite(rel) })
	r.check(err == nil && diff == 0, "%d relations of the last cone's %d clients differ from the from-scratch campaign (%v)", diff, len(cone.Clients), err)
	for _, c := range cone.SortedClients() {
		for _, site := range want.RTT.Sites() {
			if want.Quarantined[site] != "" || got.Quarantined[site] != "" {
				continue
			}
			a, okA := want.RTT.RTT(site, c)
			b, okB := got.RTT.RTT(site, c)
			r.check(a == b && okA == okB, "client %d site %d: healed RTT %v (%v), from scratch %v (%v)", c, site, b, okB, a, okA)
		}
	}

	diff, total, err := prefDrift(want.Pred, got.Pred, skipProvider, skipSite)
	r.check(err == nil, "%v", err)
	var gotBytes, wantBytes bytes.Buffer
	errGot, errWant := campaign.SaveSnapshot(&gotBytes, got), campaign.SaveSnapshot(&wantBytes, want)
	r.check(errGot == nil && errWant == nil, "campaign.SaveSnapshot: %v %v", errGot, errWant)
	r.cfg.logf("  healed vs from-scratch post-churn campaign: last cone's %d clients exact; all clients: byte-identical %v, %d of %d relations differ (reported, not failed); quarantined %v vs %v",
		len(cone.Clients), bytes.Equal(gotBytes.Bytes(), wantBytes.Bytes()), diff, total, got.Quarantined, want.Quarantined)
}
