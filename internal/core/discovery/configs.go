package discovery

import (
	"time"

	"anyopt/internal/core/prefs"
	"anyopt/internal/topology"
)

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
		return e.measure(e.prober(sim), nil, true, true, 0)
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
		return e.measure(e.prober(sim), nil, false, withRTT, 0)
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

// RunConfigurations deploys each configuration's site IDs in announcement
// order (spaced) and measures every target's catchment — the "deploy and
// measure" step of §5.2 — running the deployments across the worker pool.
// It returns the measured catchments (site IDs per client) in configuration
// order, byte-identical to running the configurations one batch each.
func (d *Discovery) RunConfigurations(configs [][]int) []map[prefs.Client]int {
	sweeps := d.runConfigs("config", configs, false)
	out := make([]map[prefs.Client]int, len(sweeps))
	for i, sw := range sweeps {
		out[i] = d.siteMap(sw)
	}
	return out
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
