package experiments

import (
	"fmt"
	"sort"
	"time"

	"anyopt"
	"anyopt/internal/analysis"
	"anyopt/internal/core/discovery"
	"anyopt/internal/core/peering"
	"anyopt/internal/core/predict"
	"anyopt/internal/topology"
)

// Fig7Result holds the peering evaluation (§5.4).
type Fig7Result struct {
	// BaseConfig is the transit-only AnyOpt configuration.
	BaseConfig anyopt.Config
	// OnePass is the full §4.4 campaign outcome.
	OnePass *peering.Result
	// CatchmentFracs is each peer's one-pass catchment as a fraction of all
	// targets (Figure 7a).
	CatchmentFracs []float64
	// RankedDeltasMs is each peer's mean-RTT change, most beneficial first
	// (Figure 7b).
	RankedDeltasMs []float64
	// MeanTransitOnly/MeanBenefit/MeanAllPeers are the deployed means of the
	// three Figure 7c configurations, in ms.
	MeanTransitOnly float64
	MeanBenefit     float64
	MeanAllPeers    float64
}

// Render formats Figures 7a, 7b, and 7c.
func (r Fig7Result) Render() string {
	out := "Figure 7a: CDF of peer catchment sizes (paper: >80% of peers catch <2.5% of targets)\n"
	out += analysis.FormatCDFSeries("catchment fraction of targets",
		r.CatchmentFracs, []float64{0, 0.005, 0.01, 0.025, 0.05, 0.1, 0.2})

	out += "\nFigure 7b: mean-RTT change per enabled peer, ranked (paper: only a few peers matter)\n"
	tab := analysis.NewTable("", "rank", "delta ms")
	step := len(r.RankedDeltasMs) / 10
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(r.RankedDeltasMs); i += step {
		tab.AddRow(i+1, r.RankedDeltasMs[i])
	}
	out += tab.String()

	out += fmt.Sprintf("\nFigure 7c: deployed mean RTT (paper: AnyOpt 68ms → +BenefitPeers 63ms → +AllPeers 61ms)\n"+
		"  AnyOpt (transit only):     %.1f ms\n"+
		"  AnyOpt + beneficial peers: %.1f ms (%d peers included)\n"+
		"  AnyOpt + all peers:        %.1f ms\n",
		r.MeanTransitOnly, r.MeanBenefit, len(r.OnePass.Included), r.MeanAllPeers)
	return out
}

// Fig7 runs the one-pass campaign over every peering link on top of the
// k-site AnyOpt optimum and deploys the three comparison configurations.
func (e *Env) Fig7(k int) (Fig7Result, error) {
	if err := e.Discover(); err != nil {
		return Fig7Result{}, err
	}
	if k <= 0 {
		k = 12
	}
	sys := e.Sys
	opt, err := sys.CurrentSnapshot().Optimize(k, 0)
	if err != nil {
		return Fig7Result{}, err
	}
	peers := sys.AllPeerLinks()
	one := sys.OnePassPeering(opt.Config, peers)

	res := Fig7Result{BaseConfig: opt.Config, OnePass: one}
	total := float64(len(sys.Topo.Targets))
	for _, rep := range one.Reports {
		res.CatchmentFracs = append(res.CatchmentFracs, float64(len(rep.Catchment))/total)
		res.RankedDeltasMs = append(res.RankedDeltasMs, float64(rep.Delta)/float64(time.Millisecond))
	}
	sort.Float64s(res.RankedDeltasMs)

	res.MeanTransitOnly = float64(one.BaselineMean) / float64(time.Millisecond)
	// The two comparison deployments (beneficial peers, all peers) are
	// independent experiments; submit them as one batch.
	means := deployWithPeers(e, opt.Config, [][]topology.LinkID{one.Included, peers})
	res.MeanBenefit = means[0]
	res.MeanAllPeers = means[1]
	return res, nil
}

// deployWithPeers measures the mean client RTT of base plus each given peer
// set, one batched experiment per set.
func deployWithPeers(e *Env, base anyopt.Config, peerSets [][]topology.LinkID) []float64 {
	deps := make([]discovery.Deployment, len(peerSets))
	for i, ps := range peerSets {
		deps[i] = discovery.Deployment{Sites: base, Peers: ps}
	}
	out := make([]float64, len(peerSets))
	for i, r := range e.Sys.Disc.Measure(deps, true) {
		mean, _ := predict.MeasuredMeanRTT(r.RTTs)
		out[i] = float64(mean) / float64(time.Millisecond)
	}
	return out
}
