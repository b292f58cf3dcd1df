package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"anyopt"
)

func TestPercentiles(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{3, 1, 2}, 95); got != 3 {
		t.Errorf("p95 of three samples = %g, want the maximum", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %g, want 2.5", got)
	}
	if v[0] != 100 {
		t.Error("percentile sorted its argument in place")
	}
}

// TestSupportedTail pins the "at least ten samples beyond" rule.
func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {39, 0}, {40, 75}, {100, 90}, {200, 95}, {580, 98}, {1000, 99}, {2320, 99}, {10000, 99.9}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestGeneratorsArePureFunctionsOfTheSeed(t *testing.T) {
	a, b := requestList(7, 1, 500, 15), requestList(7, 1, 500, 15)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("requestList is not a pure function of its arguments")
	}
	if reflect.DeepEqual(a, requestList(8, 1, 500, 15)) || reflect.DeepEqual(a, requestList(7, 0, 500, 15)) {
		t.Error("requestList ignores the seed or the client")
	}
	for i := 0; i+requestBlock <= len(a); i += requestBlock {
		optimizes := 0
		for _, q := range a[i : i+requestBlock] {
			if q.optimize {
				optimizes++
				if q.k < 5 || q.k > 10 {
					t.Fatalf("optimize k = %d, want 5..10", q.k)
				}
				continue
			}
			seen := map[int]bool{}
			for _, id := range q.config {
				if id < 1 || id > 15 || seen[id] {
					t.Fatalf("bad predict config %v", q.config)
				}
				seen[id] = true
			}
			if len(q.config) < 3 || len(q.config) > 12 {
				t.Fatalf("predict config has %d sites, want 3..12", len(q.config))
			}
		}
		if optimizes != 1 {
			t.Fatalf("block at %d holds %d optimize requests, want exactly 1", i, optimizes)
		}
	}
	if churnBody(3, 4) != churnBody(3, 4) || churnBody(3, 4) == churnBody(3, 5) || churnBody(3, 4) == churnBody(4, 4) {
		t.Error("churnBody is not a pure, injective function of (seed, i)")
	}
	if want := `{"seed": 3004, "count": 1}`; churnBody(3, 4) != want {
		t.Errorf("churnBody(3, 4) = %s, want %s", churnBody(3, 4), want)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Parent: 0, Name: "phase", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "record", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Name: "record", StartNS: 30, EndNS: 60},  // overlaps span 2
		{ID: 4, Parent: 1, Name: "record", StartNS: 90, EndNS: 120}, // clipped to the parent
	}}
	tr.fillSelfTimes()
	if got := tr.spans[0].SelfNS; got != 100-50-10 {
		t.Errorf("self time = %d, want 40", got)
	}
	if got := tr.durationsMS("record"); len(got) != 3 || got[0] != 30e-6 {
		t.Errorf("durationsMS = %v", got)
	}
}

func TestCompareFlagsOnlyWhatIsWorseThanItsBound(t *testing.T) {
	bound := map[string]float64{}
	for _, d := range endToEnd {
		bound[d.Name] = d.Bound
	}
	// mk is a result whose latency is worse than 10 ms by the given share of
	// its bound, and whose throughput is worse than 100/s likewise.
	mk := func(latency, throughput float64) map[string]result {
		return map[string]result{"serve_mixed": {Correct: true, Attempted: 1, Metrics: map[string]metric{
			"op_p50_ms": {10 * (1 + latency*bound["op_p50_ms"]), "ms"},
			"ops_per_s": {100 * (1 - throughput*bound["ops_per_s"]), "1/s"},
		}}}
	}
	var out bytes.Buffer
	if compare(&out, mk(0, 0), mk(0.9, 0.9)) != 0 {
		t.Errorf("within bounds reported as regression:\n%s", out.String())
	}
	if compare(&out, mk(0, 0), mk(-3, -3)) != 0 {
		t.Error("an improvement reported as regression")
	}
	out.Reset()
	if compare(&out, mk(0, 0), mk(1.1, 0)) != 1 || !strings.Contains(out.String(), "REGRESSION serve_mixed     op_p50_ms") {
		t.Errorf("latency beyond its bound not named:\n%s", out.String())
	}
	out.Reset()
	if compare(&out, mk(0, 0), mk(0, 1.1)) != 1 || !strings.Contains(out.String(), "REGRESSION serve_mixed     ops_per_s") {
		t.Errorf("throughput beyond its bound not named:\n%s", out.String())
	}
	failed := mk(0, 0)
	failed["serve_mixed"] = result{Correct: false, Attempted: 5, Failed: 1}
	if compare(&out, mk(0, 0), failed) != 1 {
		t.Error("a failed correctness check is not a failure")
	}
}

// benchmarkSpec is BENCHMARK.json, the contract the program must match.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []layerDef `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestSpecMatchesProgram(t *testing.T) {
	spec := readSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	var names []string
	for _, w := range spec.Workloads {
		use(w.Name)
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloads)
	}
	var e2e []metricDef
	for _, m := range spec.EndToEnd {
		use(m.Name)
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better, m.Bound})
		if !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v: bad unit or bound", m)
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end\n%v\nprogram\n%v", e2e, endToEnd)
	}
	for _, m := range spec.PerLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("per-layer metric %+v: bad unit", m)
		}
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the program's table")
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 || len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", spec.RunSeconds, spec.Paths)
	}
}

// TestSmoke runs all four workloads at test scale with a tiny budget,
// untraced and traced: every correctness check must pass and each result
// must carry exactly the declared metric names.
func TestSmoke(t *testing.T) {
	for _, traced := range []bool{false, true} {
		var log bytes.Buffer
		cfg := config{seed: 2, base: anyopt.DefaultOptions(), budget: 300 * time.Millisecond, tmp: t.TempDir(), log: &log}
		want := map[string]string{}
		for _, d := range endToEnd {
			want[d.Name] = d.Unit
		}
		if traced {
			cfg.tracer = newTracer()
			want = map[string]string{}
			for _, d := range perLayer {
				want[d.Name] = d.Unit
			}
		}
		for _, name := range workloads {
			res := runWorkload(cfg, name)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d failed\n%s", name, traced, res.Failed, res.Attempted, log.String())
			}
			got := map[string]string{}
			for n, m := range res.Metrics { //lint:orderinvariant building a map
				got[n] = m.Unit
				if !traced && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, n, m.Value)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v reports %v, declared %v", name, traced, got, want)
			}
			log.Reset()
		}
		if traced {
			path := cfg.tmp + "/spans.json"
			if _, err := cfg.tracer.write(path); err != nil {
				t.Fatal(err)
			}
			var spans []span
			data, _ := os.ReadFile(path)
			if err := json.Unmarshal(data, &spans); err != nil || len(spans) < 100 {
				t.Errorf("span file: %d spans, %v", len(spans), err)
			}
		}
	}
}
