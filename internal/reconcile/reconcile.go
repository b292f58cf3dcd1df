package reconcile

import (
	"fmt"

	"anyopt"
	"anyopt/internal/core/discovery"
	"anyopt/internal/core/predict"
	"anyopt/internal/core/prefs"
	"anyopt/internal/testbed"
	"anyopt/internal/topology"
)

// RepairConfig parameterizes one cone-scoped repair campaign.
type RepairConfig struct {
	// Discovery is the campaign configuration the original campaign ran
	// with; the repair replays its canonical schedule (same simulator
	// config, same noise seed, nonces from zero) with only the TargetFilter
	// replaced. Anything else would break row byte-identity. Its Workers
	// bounds repair concurrency; worker count never affects results.
	Discovery discovery.Config
}

// RepairResult is a completed cone repair, ready for publication through
// anyopt.System.PatchCampaign. All structures are fresh copy-on-write values;
// nothing aliases the snapshot that was repaired.
type RepairResult struct {
	// Pred is the patched two-level predictor: cone rows re-measured, all
	// other rows carried over from the repaired snapshot.
	Pred *predict.Predictor
	// RTT is the patched singleton RTT table.
	RTT *discovery.RTTTable
	// AnnOrder is the announcement order re-chosen over the patched
	// provider preferences.
	AnnOrder []prefs.Item
	// Experiments is the repair campaign's BGP experiment count — equal to
	// a full campaign's, since the repair replays the whole schedule and
	// filters only the probing.
	Experiments int
	// Quarantined is the quarantine set carried through the repair.
	Quarantined map[int]string

	// ProbedTargets / TotalTargets measure repair scope: the fraction
	// actually re-probed is the cone-scoping win over a full re-campaign.
	ProbedTargets int
	TotalTargets  int
	// QuorumRetries counts extra experiment attempts K-of-N re-measurement
	// needed under faults.
	QuorumRetries uint64
	// FaultLog is the repair campaign's failure trace.
	FaultLog []string
}

// Repair runs a cone-scoped re-measurement campaign against the live
// topology and patches the re-measured rows into snap's campaign structures.
//
// The repair constructs a fresh Discovery so nonces replay the canonical
// campaign schedule from zero: every experiment runs the full BGP
// announcement sequence (routing state identical to an unfiltered campaign),
// and per-target stream rewinding makes each probed row a pure function of
// (experiment, target). The produced rows are therefore byte-identical to the
// rows a from-scratch campaign on the post-churn topology would measure — the
// convergence guarantee the differential test checks.
//
// Quarantine is inherited from snap (dead-site detection is meaningless under
// a target filter) and carried into the result. On error the snapshot is
// untouched and the caller decides: quarantine the cone, keep its rows
// stale-flagged, degrade health.
func Repair(tb *testbed.Testbed, snap *anyopt.Snapshot, cone *Cone, cfg RepairConfig) (*RepairResult, error) {
	if len(cone.Clients) == 0 {
		return nil, fmt.Errorf("reconcile: empty cone")
	}
	dcfg := cfg.Discovery
	dcfg.TargetFilter = make(map[prefs.Client]bool, len(cone.Clients))
	for c := range cone.Clients {
		dcfg.TargetFilter[c] = true
	}
	d := discovery.New(tb, dcfg)
	d.RestoreQuarantine(snap.Quarantined)

	pred, rtt, err := predict.NewPredictor(tb, d, snap.Pred.UseRTTHeuristic)
	if err != nil {
		return nil, fmt.Errorf("reconcile: repair campaign: %w", err)
	}

	patchedProviders, err := snap.Pred.Providers.PatchClients(pred.Providers, cone.Contains)
	if err != nil {
		return nil, fmt.Errorf("reconcile: patching provider prefs: %w", err)
	}
	patchedSites := make(map[topology.ASN]*prefs.Store, len(snap.Pred.Sites))
	for p, base := range snap.Pred.Sites {
		repaired := pred.Sites[p]
		if base == nil || repaired == nil {
			patchedSites[p] = base
			continue
		}
		ps, err := base.PatchClients(repaired, cone.Contains)
		if err != nil {
			return nil, fmt.Errorf("reconcile: patching site prefs for provider %d: %w", p, err)
		}
		patchedSites[p] = ps
	}
	patchedRTT := snap.RTT.Patch(rtt, cone.Contains)
	order, _ := patchedProviders.BestAnnouncementOrder(7)

	probed, total := d.FilteredTargets()
	return &RepairResult{
		Pred: &predict.Predictor{
			TB:              tb,
			Providers:       patchedProviders,
			Sites:           patchedSites,
			RTT:             patchedRTT,
			UseRTTHeuristic: snap.Pred.UseRTTHeuristic,
		},
		RTT:           patchedRTT,
		AnnOrder:      order,
		Experiments:   d.Experiments,
		Quarantined:   d.Quarantined(),
		ProbedTargets: probed,
		TotalTargets:  total,
		QuorumRetries: d.QuorumRetries(),
		FaultLog:      d.FaultLog(),
	}, nil
}

// MarkStale returns prev with every cone client marked stale at gen — the
// generation whose campaign data the rows still reflect. prev is not
// modified; the result is fresh, for publication through PatchCampaign.
func MarkStale(prev map[prefs.Client]uint64, cone *Cone, gen uint64) map[prefs.Client]uint64 {
	out := make(map[prefs.Client]uint64, len(prev)+len(cone.Clients))
	for c, g := range prev {
		out[c] = g
	}
	for c := range cone.Clients {
		if _, ok := out[c]; !ok {
			out[c] = gen
		}
	}
	return out
}

// ClearRepaired returns prev with the staleness of repaired cone clients
// cleared, nil when nothing remains. gen is the generation of the snapshot the
// repair measured against: a mark recorded at an earlier generation was
// published before that snapshot existed, so the repair's measurement saw the
// churn behind it and the row is genuinely healed. A cone client whose mark
// carries gen or later was re-marked by churn that raced the repair's
// measurement — its mark survives until its own queued repair commits. prev is
// not modified.
func ClearRepaired(prev map[prefs.Client]uint64, cone *Cone, gen uint64) map[prefs.Client]uint64 {
	var out map[prefs.Client]uint64
	for c, g := range prev {
		if cone.Clients[c] && g < gen {
			continue
		}
		if out == nil {
			out = make(map[prefs.Client]uint64)
		}
		out[c] = g
	}
	return out
}
