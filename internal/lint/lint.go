// Package lint is anyoptlint's analysis engine: a standard-library-only
// static analyzer that enforces the repository's determinism and concurrency
// invariants on the simulator packages.
//
// The paper's predictions rest on exactly reproducible BGP decision outcomes
// — including the arrival-order tie-breaker — so properties the codebase
// merely followed by convention are machine-checked here:
//
//   - maporder: no range over a map whose body writes to a slice, store,
//     writer, or channel, unless the result is provably order-insensitive or
//     the accumulated slice is sorted before use. Go randomizes map iteration
//     order per run, so any such loop silently injects nondeterminism into
//     campaign results.
//   - entropy: no wall-clock reads (time.Now and friends) and no global or
//     unseeded math/rand in simulator packages; all entropy must flow from a
//     seeded source parameter so experiments replay bit-identically. Packages
//     whose policy also sets NoRand may not touch math/rand at all — their
//     entropy arrives pre-drawn (jitter nonces, noise models, fault
//     injectors), never from an RNG of their own.
//   - nogo: no `go` statement in simulator packages — concurrency is the
//     exclusive business of internal/exec's worker pool, which guarantees
//     scheduling cannot leak into results.
//   - snapimmut: no write to — or mutable alias leaked from — an immutable
//     campaign snapshot outside its sanctioned writers. The lock-free serving
//     path reads snapshots with no coordination at all; this check is what
//     makes that sound at compile time instead of by storm-test luck.
//
// No finding can be suppressed: there is no annotation or directive, so
// code that trips a check changes until it passes.
//
// maporder and snapimmut run on every package the policy table in policy.go
// matches; the table decides entropy, its NoRand tightening and nogo per
// package. The snapshot's publication point is not a lint check: the
// publish.Cell type lets only its Publish method store and number a
// snapshot, and a copied cell, like any lock copied by value, is go vet's
// copylocks check, which `make vet` runs over both build variants.
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// Diagnostic is one finding.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Check names the check that produced it (maporder, entropy, nogo,
	// snapimmut).
	Check string
	// Message describes the violation.
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Check)
}

// Runner applies a policy table to loaded packages.
type Runner struct {
	// Policies maps packages to enabled checks; nil selects DefaultPolicies.
	Policies []PolicyRule
	// SnapshotRules configures the snapimmut check; nil selects
	// DefaultSnapshotRules.
	SnapshotRules []SnapshotRule
}

// Run analyzes pkgs and returns all diagnostics sorted by position, exact
// duplicates removed. Duplicates arise when LoadTagSets analyzes two
// file-list variants of one package (a tag set adds files): the shared files
// are walked once per variant and produce identical findings.
func (r *Runner) Run(pkgs []*Package) []Diagnostic {
	rules := r.Policies
	if rules == nil {
		rules = DefaultPolicies
	}
	snapRules := r.SnapshotRules
	if snapRules == nil {
		snapRules = DefaultSnapshotRules
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, r.runPackage(pkg, rules, snapRules)...)
	}
	sortDiagnostics(diags)
	return dedupeDiagnostics(diags)
}

// runPackage analyzes one package under the resolved configuration.
func (r *Runner) runPackage(pkg *Package, rules []PolicyRule, snapRules []SnapshotRule) []Diagnostic {
	p, ok := PolicyFor(rules, pkg.Path)
	if !ok {
		return nil
	}
	diags := checkMapOrder(pkg)
	if p.Entropy {
		diags = append(diags, checkEntropy(pkg, p.NoRand)...)
	}
	if p.NoGo {
		diags = append(diags, checkNoGo(pkg)...)
	}
	diags = append(diags, checkSnapImmut(pkg, snapRules)...)
	return diags
}

// dedupeDiagnostics removes exact duplicates from a sorted slice.
func dedupeDiagnostics(diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	for _, d := range diags {
		if len(out) > 0 {
			last := out[len(out)-1]
			if last.Pos == d.Pos && last.Check == d.Check && last.Message == d.Message {
				continue
			}
		}
		out = append(out, d)
	}
	return out
}

// sortDiagnostics orders diags by file, line, column, then message.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Message < diags[j].Message
	})
}
