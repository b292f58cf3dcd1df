package discovery

import (
	"time"

	"anyopt/internal/core/prefs"
	"anyopt/internal/topology"
)

// Deployment is one experiment for Measure: sites announced in order
// (spaced), then peering links enabled.
type Deployment struct {
	Sites []int
	Peers []topology.LinkID
}

// ConfigResult is one deployment's measured state, keyed by answering
// client: the catchment site, the exact origin-side link the reply entered
// over (transit or peering, decoded from the per-interface GRE key) and,
// when measured, the RTT to the catchment site.
type ConfigResult struct {
	Catchments map[prefs.Client]int
	Links      map[prefs.Client]topology.LinkID
	RTTs       map[prefs.Client]time.Duration
}

// Measure is the "deploy and measure" step of §3.1 and §5.2: one experiment
// per deployment, fanned across the worker pool, each a Verfploeter sweep of
// every target's catchment and, when withRTT, a tunneled RTT probe through
// that site. Nonces are drawn in deployment order, so one batch is
// byte-identical to the same deployments submitted one call each. Results
// come back in deployment order; RTTs is nil without withRTT.
func (d *Discovery) Measure(deps []Deployment, withRTT bool) []ConfigResult {
	kind := "config"
	if withRTT {
		kind = "configrtt"
	}
	sweeps := d.runBatch(kind, len(deps), func(e *Exp, i int) Sweep {
		sim := e.deploy(deps[i].Sites, deps[i].Peers)
		return e.measure(e.prober(sim), nil, true, withRTT, 0)
	})
	d.Experiments += len(deps)
	targets := d.TB.Topo.Targets
	out := make([]ConfigResult, len(sweeps))
	for i, sw := range sweeps {
		r := ConfigResult{
			Catchments: make(map[prefs.Client]int, len(sw.Site)),
			Links:      make(map[prefs.Client]topology.LinkID, len(sw.Site)),
		}
		if withRTT {
			r.RTTs = make(map[prefs.Client]time.Duration, len(sw.Site))
		}
		for p := range sw.Site {
			row := sw.row(p)
			if row.site == 0 {
				continue
			}
			c := prefs.Client(targets[p].AS)
			r.Catchments[c] = int(row.site)
			r.Links[c] = topology.LinkID(row.link)
			if row.rtt != rttMissing {
				r.RTTs[c] = time.Duration(row.rtt)
			}
		}
		out[i] = r
	}
	return out
}
