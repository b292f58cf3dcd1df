package escape

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestFixtureAnalysis drives the full compile-and-parse pipeline over the
// escapee fixture: the deliberate heap escape in Box must surface, attributed
// to its function, and the stack-only function must stay silent.
func TestFixtureAnalysis(t *testing.T) {
	findings, err := Analyze(".", []string{"./testdata/src/escapee"})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if len(findings) == 0 {
		t.Fatal("no escape findings from fixture; expected Box's moved-to-heap site")
	}
	var boxed bool
	for _, f := range findings {
		if f.Func != "Box" {
			t.Errorf("finding outside Box: %+v", f)
		}
		if strings.Contains(f.Msg, "moved to heap") {
			boxed = true
		}
		if !strings.HasSuffix(f.File, "escapee.go") || f.Line == 0 {
			t.Errorf("finding missing source position: %+v", f)
		}
		if f.Pkg != "anyopt/internal/lint/escape/testdata/src/escapee" {
			t.Errorf("finding has wrong package: %+v", f)
		}
	}
	if !boxed {
		t.Errorf("no moved-to-heap finding for Box; got %+v", findings)
	}

	// Against an empty baseline the fixture's escape is a regression — this
	// is the acceptance test that a new heap escape fails the gate.
	regs := Diff(findings, Baseline{})
	if len(regs) == 0 {
		t.Fatal("Diff against empty baseline reported no regressions")
	}
	if regs[0].File == "" || regs[0].Line == 0 {
		t.Errorf("regression missing source position: %+v", regs[0])
	}

	// Against its own counts the fixture is clean — the regenerated-baseline
	// steady state.
	if regs := Diff(findings, Baseline(Counts(findings))); len(regs) != 0 {
		t.Errorf("Diff against own counts reported regressions: %+v", regs)
	}
}

// TestBaselineRoundTrip pins the checked-in file format.
func TestBaselineRoundTrip(t *testing.T) {
	counts := map[Site]int{
		{Pkg: "anyopt/internal/netsim", Func: "Engine.Run", Msg: "x escapes to heap"}:     2,
		{Pkg: "anyopt/internal/bgp", Func: "parse", Msg: "moved to heap: buf"}:            1,
		{Pkg: "anyopt/internal/netproto", Func: "<toplevel>", Msg: "lit escapes to heap"}: 3,
	}
	text := FormatBaseline(counts)
	if !bytes.HasPrefix(text, []byte("#")) {
		t.Errorf("baseline missing header comment:\n%s", text)
	}
	back, err := ParseBaseline(bytes.NewReader(text))
	if err != nil {
		t.Fatalf("ParseBaseline: %v", err)
	}
	if len(back) != len(counts) {
		t.Fatalf("round trip lost sites: got %d, want %d", len(back), len(counts))
	}
	for site, n := range counts {
		if back[site] != n {
			t.Errorf("site %+v: got count %d, want %d", site, back[site], n)
		}
	}
}

// TestBaselineParseErrors pins the malformed-line diagnostics.
func TestBaselineParseErrors(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"missing fields", "pkg\tfn\t1\n", "want pkg"},
		{"bad count", "pkg\tfn\tmany\tmsg\n", "bad count"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseBaseline(strings.NewReader(c.in))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("ParseBaseline(%q) error = %v, want mention of %q", c.in, err, c.want)
			}
		})
	}
	// Comments and blank lines are not errors.
	base, err := ParseBaseline(strings.NewReader("# header\n\npkg\tfn\t4\tmsg with\ttab? no: SplitN caps at 4\n"))
	if err != nil {
		t.Fatalf("ParseBaseline with comments: %v", err)
	}
	if len(base) != 1 {
		t.Fatalf("got %d sites, want 1", len(base))
	}
}

// TestDiffSemantics pins the budget arithmetic: growth regresses, shrinkage
// and disappearance do not, and new sites regress from zero.
func TestDiffSemantics(t *testing.T) {
	site := func(fn string) Site { return Site{Pkg: "p", Func: fn, Msg: "x escapes to heap"} }
	findings := []Finding{
		{Site: site("grew"), File: "a.go", Line: 10},
		{Site: site("grew"), File: "a.go", Line: 20},
		{Site: site("held"), File: "a.go", Line: 30},
		{Site: site("fresh"), File: "b.go", Line: 5},
	}
	base := Baseline{site("grew"): 1, site("held"): 1, site("gone"): 7}
	regs := Diff(findings, base)
	if len(regs) != 2 {
		t.Fatalf("got %d regressions, want 2: %+v", len(regs), regs)
	}
	byFunc := map[string]Regression{}
	for _, r := range regs {
		byFunc[r.Func] = r
	}
	if r := byFunc["grew"]; r.Have != 2 || r.Allowed != 1 || r.Line != 10 {
		t.Errorf("grew: %+v", r)
	}
	if r := byFunc["fresh"]; r.Have != 1 || r.Allowed != 0 || r.File != "b.go" {
		t.Errorf("fresh: %+v", r)
	}
}

// TestModuleBaselineCurrent is the merge gate: the hot-path packages must fit
// inside the checked-in baseline.
func TestModuleBaselineCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("recompiles the hot-path packages")
	}
	digest, err := SourceDigest("../../..", DefaultPackages)
	if err != nil {
		t.Fatalf("SourceDigest: %v", err)
	}
	t.Logf("gated sources and their module dependencies: sha256 %s", digest)
	findings, err := Analyze("../../..", DefaultPackages)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	f, err := os.Open("../../../lint/escape_baseline.txt")
	if err != nil {
		t.Fatalf("opening baseline: %v", err)
	}
	defer f.Close()
	base, err := ParseBaseline(f)
	if err != nil {
		t.Fatalf("ParseBaseline: %v", err)
	}
	for _, r := range Diff(findings, base) {
		t.Errorf("new heap escape: %s.%s: %s (%d > %d) at %s:%d — regenerate with make escape-baseline if deliberate",
			r.Pkg, r.Func, r.Msg, r.Have, r.Allowed, r.File, r.Line)
	}
}
