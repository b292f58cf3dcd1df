package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fixturePolicy enables every check on the fixture tree; the strictrand
// fixture additionally gets the NoRand tightening it exists to exercise.
var fixturePolicy = []PolicyRule{
	{"anyopt/internal/lint/testdata/src/...", Policy{Entropy: true, NoGo: true}},
	{"anyopt/internal/lint/testdata/src/strictrand", Policy{Entropy: true, NoRand: true, NoGo: true}},
}

// fixtureSnapshotRules retargets snapimmut at the fixture's own snapshot
// type.
var fixtureSnapshotRules = []SnapshotRule{
	{Type: "anyopt/internal/lint/testdata/src/snapimmut.Snapshot", Writers: map[string]bool{"publish": true}},
}

// fixtureRunner is the Runner every fixture test uses.
func fixtureRunner() *Runner {
	return &Runner{
		Policies:      fixturePolicy,
		SnapshotRules: fixtureSnapshotRules,
	}
}

func loadFixtures(t *testing.T, dirs ...string) []*Package {
	t.Helper()
	loader := NewLoader(".")
	pkgs, err := loader.Load(dirs...)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	if len(pkgs) != len(dirs) {
		t.Fatalf("loaded %d packages, want %d", len(pkgs), len(dirs))
	}
	return pkgs
}

// wantRe extracts `// want "regex"` expectations.
var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// collectWants scans fixture sources for want comments.
func collectWants(t *testing.T, dir string) []*expectation {
	t.Helper()
	var wants []*expectation
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			for _, m := range wantRe.FindAllStringSubmatch(sc.Text(), -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", path, line, m[1], err)
				}
				wants = append(wants, &expectation{file: path, line: line, re: re})
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	return wants
}

// TestFixtureGolden runs every check over the fixture packages and requires
// an exact match between produced diagnostics and // want expectations.
func TestFixtureGolden(t *testing.T) {
	dirs := []string{
		"./testdata/src/maporder",
		"./testdata/src/entropy",
		"./testdata/src/strictrand",
		"./testdata/src/nogo",
		"./testdata/src/snapimmut",
	}
	pkgs := loadFixtures(t, dirs...)
	diags := fixtureRunner().Run(pkgs)

	var wants []*expectation
	for _, d := range dirs {
		wants = append(wants, collectWants(t, d)...)
	}
	if len(wants) == 0 {
		t.Fatal("no want expectations found in fixtures")
	}

	abs := func(p string) string {
		a, err := filepath.Abs(p)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && abs(w.file) == abs(d.Pos.Filename) && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// TestPolicyResolution pins the table semantics: longest pattern wins, the
// speaker keeps its goroutines, and unmatched paths get no checks.
func TestPolicyResolution(t *testing.T) {
	cases := []struct {
		path string
		want Policy
	}{
		{"anyopt", baseline},
		{"anyopt/internal/analysis", baseline},
		{"anyopt/internal/bgp", simPure},
		{"anyopt/internal/bgp/wire", simPure},
		{"anyopt/internal/bgp/speaker", goOwner},
		{"anyopt/internal/bgp/invariant", simPure},
		{"anyopt/internal/netsim", simPure},
		{"anyopt/internal/topology", sim},
		{"anyopt/internal/core/discovery", simPure},
		{"anyopt/internal/core/prefs", simPure},
		{"anyopt/internal/core/splpo", sim},
		{"anyopt/internal/probe", sim},
		{"anyopt/internal/fault", sim},
		{"anyopt/internal/splitmix", simPure},
		{"anyopt/internal/exec", goOwner},
		{"anyopt/internal/orchestrator", goOwner},
		{"anyopt/internal/api", goOwner},
		{"anyopt/cmd/anyopt", baseline},
		{"anyopt/cmd/anyoptd", baseline},
	}
	for _, c := range cases {
		if got, ok := PolicyFor(DefaultPolicies, c.path); !ok || got != c.want {
			t.Errorf("PolicyFor(%q) = %+v, %v, want %+v, true", c.path, got, ok, c.want)
		}
	}
	if got, ok := PolicyFor(DefaultPolicies, "github.com/elsewhere/pkg"); ok {
		t.Errorf("PolicyFor matched an unlisted path: %+v", got)
	}
	// Unmatched means no checks at all, the always-on ones included: the
	// maporder fixture is full of findings under any matching rule.
	pkgs := loadFixtures(t, "./testdata/src/maporder")
	if diags := (&Runner{Policies: []PolicyRule{{"github.com/elsewhere/...", sim}}}).Run(pkgs); len(diags) != 0 {
		t.Errorf("unmatched package got %d diagnostics:\n%s", len(diags), format(diags))
	}
}

// TestModuleClean is the merge gate in unit-test form: the repository's own
// tree must produce zero diagnostics under the default policy table.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	loader := NewLoader("../..")
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; module enumeration looks broken", len(pkgs))
	}
	diags := (&Runner{}).Run(pkgs)
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

func format(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return b.String()
}
