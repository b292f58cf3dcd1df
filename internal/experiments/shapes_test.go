package experiments

import (
	"testing"

	"anyopt/internal/analysis"
)

// TestPaperShapes is the regression gate on the science: every verdict
// inequality EXPERIMENTS.md draws from a figure, asserted at test scale on
// seed 1. A change that legitimately moves the measured bytes (a new noise
// generator, a different schedule) re-records the byte pins, and this test is
// what says the figures still have the paper's shape afterwards.
//
// The figures run in table order on an environment of the test's own: each
// one draws experiment nonces from the campaign's counter, so sharing the
// package environment would make the numbers depend on which tests ran first.
func TestPaperShapes(t *testing.T) {
	env, err := NewEnv("test", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Discover(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		figure string
		check  func(t *testing.T)
	}{
		{"Fig4b", func(t *testing.T) {
			res, err := env.Fig4b()
			if err != nil {
				t.Fatal(err)
			}
			last := len(res.Providers) - 1
			t.Logf("providers %v: naive %.4f, order-aware %.4f without a total order", res.Providers, res.NoOrderNaive, res.NoOrderAware)
			if res.Providers[last] != 6 {
				t.Fatalf("last row is %d providers, want 6", res.Providers[last])
			}
			if res.NoOrderAware[last] >= res.NoOrderNaive[last] {
				t.Errorf("at 6 providers order-aware %.4f is not below naive %.4f", res.NoOrderAware[last], res.NoOrderNaive[last])
			}
			for i := 1; i <= last; i++ {
				if res.NoOrderNaive[i] < res.NoOrderNaive[i-1] {
					t.Errorf("naive fraction fell from %d to %d providers: %.4f", res.Providers[i-1], res.Providers[i], res.NoOrderNaive)
				}
			}
		}},
		{"Fig4c", func(t *testing.T) {
			res, err := env.Fig4c([]int{6, 15})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("sites %v: flat-naive %.4f, two-level %.4f with a total order", res.Sites, res.FlatNaive, res.TwoLevel)
			if res.FlatNaive[1] >= res.FlatNaive[0] {
				t.Errorf("flat-naive did not fall from 6 to 15 sites: %.4f", res.FlatNaive)
			}
			if res.TwoLevel[1] < 0.75 {
				t.Errorf("two-level fraction %.4f at 15 sites, want >= 0.75", res.TwoLevel[1])
			}
			if res.TwoLevel[1] <= res.FlatNaive[1] {
				t.Errorf("two-level %.4f is not above flat-naive %.4f at 15 sites", res.TwoLevel[1], res.FlatNaive[1])
			}
		}},
		{"Fig5a", func(t *testing.T) {
			res, err := env.Fig5(6, 0)
			if err != nil {
				t.Fatal(err)
			}
			acc := analysis.Mean(res.Accuracies())
			t.Logf("mean accuracy %.4f over %d configurations", acc, len(res.Configs))
			if acc < 0.93 {
				t.Errorf("mean catchment prediction accuracy %.4f, want >= 0.93", acc)
			}
		}},
		{"Fig6", func(t *testing.T) {
			res, err := env.Fig6(12)
			if err != nil {
				t.Fatal(err)
			}
			order := []string{"AnyOpt-12", "15-all", "12-Greedy", "4-Random"}
			means := make([]float64, len(order))
			for i, name := range order {
				s := res.Get(name)
				if s == nil {
					t.Fatalf("missing series %s: %+v", name, res.Series)
				}
				means[i] = s.Mean()
			}
			t.Logf("mean RTT ms %v: %.2f", order, means)
			for i := 1; i < len(order); i++ {
				if means[i-1] >= means[i] {
					t.Errorf("%s (%.2f ms) is not below %s (%.2f ms)", order[i-1], means[i-1], order[i], means[i])
				}
			}
		}},
		{"AblationArrivalOrder", func(t *testing.T) {
			on, off, err := env.arrivalOrderFlips()
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("mean flip fraction on order reversal: ON %.4f, OFF %.4f", on, off)
			if off != 0 {
				t.Errorf("spec-only routers flipped %.4f of catchments on order reversal, want exactly 0", off)
			}
			if on <= 0 {
				t.Errorf("arrival-order routers flipped no catchments on order reversal")
			}
		}},
	} {
		t.Run(tc.figure, tc.check)
	}
}
