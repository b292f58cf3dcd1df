// Package escape is anyoptlint's allocation gate: a compiler-driven
// escape-analysis pass over the hot-path packages, diffed against a
// checked-in baseline.
//
// PR 5's zero-allocation event engine is enforced dynamically by benchmarks
// — which only fail when someone runs them and reads the numbers. This
// package makes the property static: it recompiles the gated packages with
// `go tool compile -m=1`, parses the "escapes to heap" / "moved to heap"
// diagnostics, attributes each site to its enclosing function, and compares
// the per-(package, function, message) counts against lint/escape_baseline.txt.
// A function that gains a heap-escape site fails `make lint` at the diff,
// with the offending source position in the message; deliberate changes
// regenerate the baseline with `make escape-baseline`.
//
// The compiler is driven directly (not through `go build`) because the build
// cache swallows -m output on cache hits: `go list -export -deps` supplies
// fresh export data for every dependency, an importcfg is synthesized from
// it, and each gated package is recompiled to a discarded object file. That
// costs one real compile per gated package per lint run and in exchange the
// diagnostics are complete every time.
package escape

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// DefaultPackages are the hot-path packages on the zero-allocation contract.
var DefaultPackages = []string{
	"./internal/netsim",
	"./internal/bgp",
	"./internal/netproto",
	"./internal/core/discovery",
	"./internal/core/prefs",
	"./internal/core/predict",
	"./internal/core/splpo",
	"./internal/reconcile",
}

// Site identifies one class of heap escape: a message the compiler emits for
// a function. Source positions are deliberately excluded so unrelated edits
// that shift lines do not churn the baseline.
type Site struct {
	// Pkg is the import path.
	Pkg string
	// Func is the enclosing function, as Recv.Name for methods.
	Func string
	// Msg is the compiler's diagnostic text, e.g. "x escapes to heap".
	Msg string
}

// Finding is one concrete occurrence of a Site in the current tree.
type Finding struct {
	Site
	File string
	Line int
	Col  int
}

// listedPackage is the slice of `go list -json` output this package needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	Export     string
}

func goJSON(dir string, args ...string) ([]*listedPackage, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("escape: go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("escape: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// Analyze recompiles the packages matched by patterns (relative to dir) with
// escape diagnostics enabled and returns every heap-escape occurrence,
// attributed to its enclosing function.
func Analyze(dir string, patterns []string) ([]Finding, error) {
	// One -deps load supplies export data for the full dependency closure —
	// including module-internal deps, which `go list -export` compiles
	// through the ordinary build cache.
	closure, err := goJSON(dir, append([]string{"list", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Standard,Export"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	targets, err := goJSON(dir, append([]string{"list",
		"-json=ImportPath,Dir,GoFiles,Standard,Export"}, patterns...)...)
	if err != nil {
		return nil, err
	}

	cfgDir, err := os.MkdirTemp("", "anyoptlint-escape")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfgDir)
	var cfg bytes.Buffer
	for _, p := range closure {
		if p.Export != "" {
			fmt.Fprintf(&cfg, "packagefile %s=%s\n", p.ImportPath, p.Export)
		}
	}
	importcfg := filepath.Join(cfgDir, "importcfg")
	if err := os.WriteFile(importcfg, cfg.Bytes(), 0o644); err != nil {
		return nil, err
	}

	var findings []Finding
	for _, t := range targets {
		if t.Standard || len(t.GoFiles) == 0 {
			continue
		}
		occ, err := compileWithDiagnostics(t, importcfg)
		if err != nil {
			return nil, err
		}
		findings = append(findings, occ...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Msg < b.Msg
	})
	return findings, nil
}

// SourceDigest reads, in this process, every module source file Analyze's
// result depends on — the packages matched by patterns and their non-standard
// dependencies, whose inlinability decides what escapes in their importers —
// and returns the SHA-256 of their paths and contents. Analyze itself sees
// those files only through child processes, which `go test` cannot follow: a
// test that calls this first has the sources in its cache key, so a cached
// "ok" cannot outlive an edit to them.
func SourceDigest(dir string, patterns []string) (string, error) {
	closure, err := goJSON(dir, append([]string{"list", "-deps",
		"-json=ImportPath,Dir,GoFiles,Standard"}, patterns...)...)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, p := range closure {
		if p.Standard {
			continue
		}
		for _, name := range p.GoFiles {
			src, err := os.ReadFile(filepath.Join(p.Dir, name))
			if err != nil {
				return "", fmt.Errorf("escape: %w", err)
			}
			fmt.Fprintf(h, "%s/%s %d\n", p.ImportPath, name, len(src))
			h.Write(src)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// compileWithDiagnostics recompiles one package to a discarded object and
// parses the -m=1 stream.
func compileWithDiagnostics(t *listedPackage, importcfg string) ([]Finding, error) {
	files := make([]string, len(t.GoFiles))
	for i, name := range t.GoFiles {
		files[i] = filepath.Join(t.Dir, name)
	}
	args := append([]string{"tool", "compile", "-m=1", "-importcfg", importcfg,
		"-p", t.ImportPath, "-o", os.DevNull}, files...)
	cmd := exec.Command("go", args...)
	// The compiler writes -m diagnostics to stdout and errors to stderr.
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("escape: compiling %s: %v\n%s%s", t.ImportPath, err, stderr.String(), stdout.String())
	}
	idx, err := newFuncIndex(files)
	if err != nil {
		return nil, err
	}
	var out []Finding
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		f, ok := parseDiagnostic(sc.Text(), t.ImportPath, idx)
		if ok {
			out = append(out, f)
		}
	}
	return out, sc.Err()
}

// parseDiagnostic extracts a heap-escape finding from one `file:line:col:
// msg` compiler line.
func parseDiagnostic(line, pkg string, idx *funcIndex) (Finding, bool) {
	if !strings.Contains(line, "escapes to heap") && !strings.Contains(line, "moved to heap") {
		return Finding{}, false
	}
	// Splitting on ".go:" keeps absolute file paths intact; line, column,
	// and the message follow.
	first := strings.SplitN(line, ".go:", 2)
	if len(first) != 2 {
		return Finding{}, false
	}
	file := first[0] + ".go"
	tail := first[1]
	nums := strings.SplitN(tail, ":", 3)
	if len(nums) != 3 {
		return Finding{}, false
	}
	ln, err1 := strconv.Atoi(nums[0])
	col, err2 := strconv.Atoi(nums[1])
	if err1 != nil || err2 != nil {
		return Finding{}, false
	}
	msg := strings.TrimSpace(nums[2])
	return Finding{
		Site: Site{Pkg: pkg, Func: idx.enclosing(file, ln), Msg: msg},
		File: file,
		Line: ln,
		Col:  col,
	}, true
}

// funcIndex maps (file, line) to the enclosing top-level function so escape
// sites survive line-number churn in the baseline.
type funcIndex struct {
	// spans maps file path to its sorted function spans.
	spans map[string][]funcSpan
}

type funcSpan struct {
	start, end int // line numbers, inclusive
	name       string
}

func newFuncIndex(files []string) (*funcIndex, error) {
	idx := &funcIndex{spans: make(map[string][]funcSpan, len(files))}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("escape: parsing %s: %w", path, err)
		}
		var spans []funcSpan
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			spans = append(spans, funcSpan{
				start: fset.Position(fn.Pos()).Line,
				end:   fset.Position(fn.End()).Line,
				name:  funcName(fn),
			})
		}
		idx.spans[path] = spans
	}
	return idx, nil
}

// funcName renders a FuncDecl as Recv.Name for methods, Name otherwise.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fn.Name.Name
	}
	return fn.Name.Name
}

func (idx *funcIndex) enclosing(file string, line int) string {
	for _, s := range idx.spans[file] {
		if line >= s.start && line <= s.end {
			return s.name
		}
	}
	return "<toplevel>"
}

// Counts aggregates findings into per-site occurrence counts.
func Counts(findings []Finding) map[Site]int {
	out := make(map[Site]int, len(findings))
	for _, f := range findings {
		out[f.Site]++
	}
	return out
}

// Baseline is the accepted per-site escape budget.
type Baseline map[Site]int

// baselineHeader introduces the checked-in file.
const baselineHeader = `# anyoptlint escape-analysis baseline.
# One line per accepted heap-escape site: pkg<TAB>func<TAB>count<TAB>message.
# Regenerate after deliberate allocation changes with: make escape-baseline
`

// ParseBaseline reads a baseline written by FormatBaseline.
func ParseBaseline(r io.Reader) (Baseline, error) {
	base := make(Baseline)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.SplitN(line, "\t", 4)
		if len(fields) != 4 {
			return nil, fmt.Errorf("escape: baseline line %d: want pkg\\tfunc\\tcount\\tmessage", n)
		}
		count, err := strconv.Atoi(fields[2])
		if err != nil {
			return nil, fmt.Errorf("escape: baseline line %d: bad count %q", n, fields[2])
		}
		base[Site{Pkg: fields[0], Func: fields[1], Msg: fields[3]}] = count
	}
	return base, sc.Err()
}

// FormatBaseline renders counts in the checked-in format, sorted.
func FormatBaseline(counts map[Site]int) []byte {
	sites := make([]Site, 0, len(counts))
	for s := range counts {
		sites = append(sites, s)
	}
	sort.Slice(sites, func(i, j int) bool {
		a, b := sites[i], sites[j]
		if a.Pkg != b.Pkg {
			return a.Pkg < b.Pkg
		}
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		return a.Msg < b.Msg
	})
	var buf bytes.Buffer
	buf.WriteString(baselineHeader)
	for _, s := range sites {
		fmt.Fprintf(&buf, "%s\t%s\t%d\t%s\n", s.Pkg, s.Func, counts[s], s.Msg)
	}
	return buf.Bytes()
}

// Regression is a site whose escape count exceeds the baseline's budget.
type Regression struct {
	Site
	// Have and Allowed are the current and baselined occurrence counts.
	Have, Allowed int
	// File, Line, Col locate one current occurrence.
	File string
	Line int
	Col  int
}

// Diff reports every site whose current count exceeds the baseline. Sites
// that shrank or disappeared are not regressions — they become baseline
// slack until the next `make escape-baseline`.
func Diff(findings []Finding, base Baseline) []Regression {
	counts := Counts(findings)
	var regs []Regression
	for site, have := range counts {
		allowed := base[site]
		if have <= allowed {
			continue
		}
		reg := Regression{Site: site, Have: have, Allowed: allowed}
		for _, f := range findings {
			if f.Site == site {
				reg.File, reg.Line, reg.Col = f.File, f.Line, f.Col
				break
			}
		}
		regs = append(regs, reg)
	}
	sort.Slice(regs, func(i, j int) bool {
		a, b := regs[i], regs[j]
		if a.Pkg != b.Pkg {
			return a.Pkg < b.Pkg
		}
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		return a.Msg < b.Msg
	})
	return regs
}
