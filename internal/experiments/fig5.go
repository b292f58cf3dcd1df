package experiments

import (
	"fmt"

	"math/rand"
	"time"

	"anyopt"
	"anyopt/internal/analysis"
	"anyopt/internal/core/discovery"
	"anyopt/internal/core/predict"
	"anyopt/internal/topology"
)

// Fig5Result holds the prediction-vs-deployment evaluation (§5.2).
type Fig5Result struct {
	Configs []Fig5Config
}

// Fig5Config is one random configuration's prediction quality.
type Fig5Config struct {
	Config        anyopt.Config
	Accuracy      float64 // Figure 5a
	Comparable    int
	PredictedMean time.Duration
	MeasuredMean  time.Duration
	AbsErr        time.Duration // Figure 5b
	RelErr        float64       // Figure 5c
}

// Accuracies lists per-config catchment accuracies.
func (r Fig5Result) Accuracies() []float64 {
	out := make([]float64, len(r.Configs))
	for i, c := range r.Configs {
		out[i] = c.Accuracy
	}
	return out
}

// AbsErrsMs lists per-config absolute mean-RTT errors in milliseconds.
func (r Fig5Result) AbsErrsMs() []float64 {
	out := make([]float64, len(r.Configs))
	for i, c := range r.Configs {
		out[i] = float64(c.AbsErr) / float64(time.Millisecond)
	}
	return out
}

// RelErrs lists per-config relative mean-RTT errors.
func (r Fig5Result) RelErrs() []float64 {
	out := make([]float64, len(r.Configs))
	for i, c := range r.Configs {
		out[i] = c.RelErr
	}
	return out
}

// Render formats Figures 5a, 5b, and 5c.
func (r Fig5Result) Render() string {
	tab := analysis.NewTable("Figure 5a/5c: catchment accuracy and RTT error per random configuration (paper: mean accuracy 94.7%, mean rel err ≤4.6%)",
		"config", "sites", "accuracy %", "pred mean", "meas mean", "rel err %")
	for _, c := range r.Configs {
		tab.AddRow(joinInts(c.Config), len(c.Config), 100*c.Accuracy,
			c.PredictedMean, c.MeasuredMean, 100*c.RelErr)
	}
	out := tab.String()
	out += fmt.Sprintf("mean accuracy %.1f%%  mean rel err %.1f%%\n",
		100*analysis.Mean(r.Accuracies()), 100*analysis.Mean(r.RelErrs()))
	out += "\nFigure 5b: CDF of |predicted - measured| mean RTT (paper: 80% within 6 ms)\n"
	out += analysis.FormatCDFSeries("absolute error (ms)", r.AbsErrsMs(),
		[]float64{1, 2, 3, 4, 5, 6, 8, 10, 15, 20})
	return out
}

// Fig5 predicts and then deploys numConfigs random configurations with sizes
// drawn from 1..14 (the paper uses 38). churnFrac, when nonzero, perturbs
// the Internet between discovery and each deployment, modeling the drift a
// real campaign experiences between measuring preferences and using them.
func (e *Env) Fig5(numConfigs int, churnFrac float64) (Fig5Result, error) {
	if err := e.Discover(); err != nil {
		return Fig5Result{}, err
	}
	if numConfigs <= 0 {
		numConfigs = 38
	}
	rng := rand.New(rand.NewSource(e.Seed*31 + 7))

	// Draw configurations and predictions up front; only rng state and the
	// (read-only until churn) discovery state feed them.
	cfgs := make([]anyopt.Config, numConfigs)
	predCatch := make([]map[anyopt.Client]int, numConfigs)
	predMeans := make([]time.Duration, numConfigs)
	snap := e.Sys.CurrentSnapshot()
	for i := 0; i < numConfigs; i++ {
		size := 1 + rng.Intn(14)
		cfgs[i] = drawConfig(e.Sys, rng, size)
		sw := snap.Pred.Sweep(cfgs[i]) // one sweep: catchments and mean RTT
		predCatch[i] = make(map[anyopt.Client]int, sw.Predicted)
		for row, at := range sw.Catch {
			if at >= 0 {
				predCatch[i][snap.Pred.Providers.ClientAt(row)] = sw.Sites[at]
			}
		}
		predMeans[i], _ = sw.MeanRTT()
	}

	// Deploy and measure. With churn the topology mutates between
	// measurements — experiments are no longer independent, so they run
	// strictly in sequence; without churn the whole sweep batches across the
	// executor.
	var measuredAll []discovery.ConfigResult
	if churnFrac > 0 {
		for i := 0; i < numConfigs; i++ {
			topology.Churn(e.Sys.Topo, churnFrac, e.Seed*1000+int64(i))
			measuredAll = append(measuredAll, e.Sys.MeasureConfigurations(cfgs[i:i+1])...)
		}
	} else {
		measuredAll = e.Sys.MeasureConfigurations(cfgs)
	}

	var res Fig5Result
	for i := 0; i < numConfigs; i++ {
		acc, n := predict.Accuracy(predCatch[i], measuredAll[i].Catchments)
		measMean, _ := predict.MeasuredMeanRTT(measuredAll[i].RTTs)

		absErr := predMeans[i] - measMean
		if absErr < 0 {
			absErr = -absErr
		}
		res.Configs = append(res.Configs, Fig5Config{
			Config:        cfgs[i],
			Accuracy:      acc,
			Comparable:    n,
			PredictedMean: predMeans[i],
			MeasuredMean:  measMean,
			AbsErr:        absErr,
			RelErr:        analysis.RelErr(float64(predMeans[i]), float64(measMean)),
		})
	}
	return res, nil
}
