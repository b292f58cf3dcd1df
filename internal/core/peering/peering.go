// Package peering implements the "one-pass" heuristic for incorporating
// settlement-free peers into a transit-only anycast configuration (§4.4,
// §5.4).
//
// The heuristic enables one peering link at a time on top of the optimized
// transit-only configuration, measures the peer's catchment and the change
// in mean client RTT, and marks peers that reduce it as beneficial. It then
// greedily adds beneficial peers in decreasing catchment-size order,
// conservatively assuming every client in a peer's one-pass catchment
// switches to it, and keeps a peer only if the estimated mean still drops.
package peering

import (
	"sort"
	"time"

	"anyopt/internal/core/discovery"
	"anyopt/internal/core/predict"
	"anyopt/internal/core/prefs"
	"anyopt/internal/topology"
)

// PeerReport is the one-pass measurement of a single peering link.
type PeerReport struct {
	// Link is the peering link.
	Link topology.LinkID
	// SiteID is the site hosting the link.
	SiteID int
	// PeerAS is the neighbor AS.
	PeerAS topology.ASN
	// Catchment holds the clients whose replies entered via this peer, with
	// their measured RTTs.
	Catchment map[prefs.Client]time.Duration
	// MeanRTT is the configuration's mean client RTT with this peer
	// enabled.
	MeanRTT time.Duration
	// Delta is MeanRTT minus the baseline mean (negative = improvement).
	Delta time.Duration
	// Beneficial marks peers that reduced the mean RTT.
	Beneficial bool
	// Reachable is false when the peer attracted no measurable clients.
	Reachable bool
}

// Result is the outcome of a one-pass campaign.
type Result struct {
	// BaselineMean is the mean client RTT of the transit-only
	// configuration.
	BaselineMean time.Duration
	// BaselineRTTs are the measured per-client RTTs of the baseline.
	BaselineRTTs map[prefs.Client]time.Duration
	// Reports holds one entry per probed peering link, in link order.
	Reports []PeerReport
	// Included lists the peering links the greedy pass kept.
	Included []topology.LinkID
	// EstimatedMean is the conservative estimate of the final mean after
	// including the chosen peers.
	EstimatedMean time.Duration
}

// BeneficialCount returns the number of beneficial peers found.
func (r *Result) BeneficialCount() int {
	n := 0
	for _, rep := range r.Reports {
		if rep.Beneficial {
			n++
		}
	}
	return n
}

// ReachableCount returns the number of peers that attracted any client.
func (r *Result) ReachableCount() int {
	n := 0
	for _, rep := range r.Reports {
		if rep.Reachable {
			n++
		}
	}
	return n
}

// OnePass runs the full §4.4 campaign: baseline measurement, one experiment
// per peering link (peers is the probe order; pass every testbed peer link
// for the paper's setup), and the conservative greedy inclusion.
func OnePass(d *discovery.Discovery, baseConfig []int, peers []topology.LinkID) *Result {
	// The baseline and one experiment per peering link are all independent:
	// filter out links with no hosting site, then submit the baseline and the
	// whole sweep as a single batch so it spreads across the discovery
	// executor.
	var valid []topology.LinkID
	for _, pl := range peers {
		if d.TB.SiteByLink(pl) != nil {
			valid = append(valid, pl)
		}
	}
	deps := make([]discovery.Deployment, 1+len(valid))
	deps[0] = discovery.Deployment{Sites: baseConfig}
	for i, pl := range valid {
		deps[1+i] = discovery.Deployment{Sites: baseConfig, Peers: []topology.LinkID{pl}}
	}
	results := d.Measure(deps, true)
	res := &Result{BaselineRTTs: results[0].RTTs}
	res.BaselineMean, _ = predict.MeasuredMeanRTT(res.BaselineRTTs)

	for i, pl := range valid {
		m := results[1+i]
		rep := PeerReport{
			Link:      pl,
			SiteID:    d.TB.SiteByLink(pl).ID,
			PeerAS:    d.TB.Topo.Link(pl).Other(d.TB.Origin),
			Catchment: make(map[prefs.Client]time.Duration),
		}
		for c, rtt := range m.RTTs {
			if m.Links[c] == pl {
				rep.Catchment[c] = rtt
			}
		}
		rep.MeanRTT, _ = predict.MeasuredMeanRTT(m.RTTs)
		rep.Delta = rep.MeanRTT - res.BaselineMean
		rep.Beneficial = rep.Delta < 0
		rep.Reachable = len(rep.Catchment) > 0
		res.Reports = append(res.Reports, rep)
	}

	res.greedyInclude()
	return res
}

// greedyInclude performs the offline conservative pass: beneficial peers in
// decreasing catchment-size order; include a peer iff assuming its entire
// one-pass catchment switches to it still lowers the estimated mean.
func (r *Result) greedyInclude() {
	var beneficial []*PeerReport
	for i := range r.Reports {
		if r.Reports[i].Beneficial {
			beneficial = append(beneficial, &r.Reports[i])
		}
	}
	sort.SliceStable(beneficial, func(i, j int) bool {
		if len(beneficial[i].Catchment) != len(beneficial[j].Catchment) {
			return len(beneficial[i].Catchment) > len(beneficial[j].Catchment)
		}
		return beneficial[i].Link < beneficial[j].Link
	})

	est := make(map[prefs.Client]time.Duration, len(r.BaselineRTTs))
	for c, d := range r.BaselineRTTs {
		est[c] = d
	}
	estMean, _ := predict.MeasuredMeanRTT(est)

	for _, rep := range beneficial {
		trial := make(map[prefs.Client]time.Duration, len(est))
		for c, d := range est {
			trial[c] = d
		}
		for c, d := range rep.Catchment {
			trial[c] = d
		}
		if m, _ := predict.MeasuredMeanRTT(trial); m < estMean {
			est, estMean = trial, m
			r.Included = append(r.Included, rep.Link)
		}
	}
	r.EstimatedMean = estMean
	if len(r.Included) == 0 {
		r.EstimatedMean = r.BaselineMean
	}
}
