package analysis

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {10, 1}, {50, 5}, {90, 9}, {100, 10},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil) = %v", got)
	}
}

func TestMedianOddEven(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("Median odd = %v", got)
	}
	if got := Median([]float64{4, 1, 2, 3}); got != 2 {
		t.Errorf("Median even (nearest-rank lower) = %v", got)
	}
}

func TestRelErr(t *testing.T) {
	if got := RelErr(110, 100); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("RelErr = %v", got)
	}
	if got := RelErr(90, 100); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("RelErr = %v", got)
	}
	if got := RelErr(5, 0); got != 0 {
		t.Errorf("RelErr want=0 should be 0, got %v", got)
	}
}

func TestCDF(t *testing.T) {
	pts := CDF([]float64{1, 1, 2, 3})
	want := []CDFPoint{{1, 0.5}, {2, 0.75}, {3, 1}}
	if len(pts) != len(want) {
		t.Fatalf("CDF = %v, want %v", pts, want)
	}
	for i := range want {
		if pts[i] != want[i] {
			t.Fatalf("CDF = %v, want %v", pts, want)
		}
	}
	if CDF(nil) != nil {
		t.Error("CDF(nil) should be nil")
	}
}

func TestCDFAt(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	cases := []struct {
		x    float64
		want float64
	}{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {100, 1},
	}
	for _, c := range cases {
		if got := CDFAt(xs, c.x); got != c.want {
			t.Errorf("CDFAt(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if got := CDFAt(nil, 1); got != 0 {
		t.Errorf("CDFAt(nil) = %v", got)
	}
}

func TestPropertyCDFMonotoneAndBounded(t *testing.T) {
	f := func(xs []float64) bool {
		for i, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				xs[i] = 0
			}
		}
		pts := CDF(xs)
		prevX, prevF := math.Inf(-1), 0.0
		for _, p := range pts {
			if p.X <= prevX || p.F <= prevF || p.F > 1 {
				return false
			}
			prevX, prevF = p.X, p.F
		}
		return len(xs) == 0 || pts[len(pts)-1].F == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyPercentileWithinRange(t *testing.T) {
	f := func(xs []float64, p uint8) bool {
		if len(xs) == 0 {
			return true
		}
		for i, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				xs[i] = 0
			}
		}
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		got := Percentile(xs, float64(p%101))
		return got >= s[0] && got <= s[len(s)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Table 1", "Site", "Location", "RTT")
	tab.AddRow(1, "Atlanta", 25*time.Millisecond)
	tab.AddRow(2, "Amsterdam", 97.5)
	out := tab.String()
	for _, want := range []string{"== Table 1 ==", "Site", "Atlanta", "25.00ms", "97.50", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("table has %d lines, want 5:\n%s", len(lines), out)
	}
}

func TestFormatCDFSeries(t *testing.T) {
	out := FormatCDFSeries("test", []float64{1, 2, 3}, []float64{0, 2, 5})
	if !strings.Contains(out, "# series: test") {
		t.Error("missing series header")
	}
	if !strings.Contains(out, "0.6667") {
		t.Errorf("missing CDF value at x=2:\n%s", out)
	}
}

func TestSparkline(t *testing.T) {
	if got := Sparkline(nil); got != "" {
		t.Errorf("empty sparkline = %q", got)
	}
	got := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7})
	if got != "▁▂▃▄▅▆▇█" {
		t.Errorf("ramp sparkline = %q", got)
	}
	if got := Sparkline([]float64{5, 5, 5}); got != "▁▁▁" {
		t.Errorf("flat sparkline = %q", got)
	}
}
