// Command anyoptlint enforces the repository's statically checked
// invariants: order-insensitive map iteration, seeded-entropy-only simulator
// packages, no goroutines outside the worker pool and snapshot immutability.
// See internal/lint for the checks and policy table, and DESIGN.md §11 for
// the invariant model.
//
// Usage:
//
//	anyoptlint [-tags taglist]... [packages]
//
// With no packages it lints ./... from the current module. -tags may repeat:
// each occurrence is one build-tag combination, and all tag sets are loaded
// in a single process sharing one module resolution (use -tags ” to include
// the untagged variant explicitly). Findings go to stdout, one a line.
//
// Exit status: 0 clean, 1 findings, 2 load or tool failure. A final
// "N findings in M packages" summary always goes to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"anyopt/internal/lint"
)

// tagSetsFlag collects repeated -tags occurrences, each one tag set.
type tagSetsFlag struct {
	sets [][]string
}

func (t *tagSetsFlag) String() string {
	var parts []string
	for _, s := range t.sets {
		parts = append(parts, strings.Join(s, ","))
	}
	return strings.Join(parts, " ")
}

func (t *tagSetsFlag) Set(v string) error {
	if v == "" {
		t.sets = append(t.sets, nil)
		return nil
	}
	t.sets = append(t.sets, strings.Split(v, ","))
	return nil
}

func main() {
	os.Exit(run())
}

func run() int {
	var tagSets tagSetsFlag
	flag.Var(&tagSets, "tags", "comma-separated build tags forming one tag set; repeatable, '' for the untagged set")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: anyoptlint [-tags taglist]... [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader := lint.NewLoader(".")
	pkgs, err := loader.LoadTagSets(tagSets.sets, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "anyoptlint:", err)
		return 2
	}
	diags := (&lint.Runner{}).Run(pkgs)
	for _, d := range diags {
		fmt.Println(d)
	}
	fmt.Fprintf(os.Stderr, "anyoptlint: %d findings in %d packages (%d analyzed)\n",
		len(diags), countFindingPackages(diags), len(pkgs))
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// countFindingPackages counts the distinct packages owning at least one
// finding, using each finding's source directory as the package identity:
// the variants one package has under several tag sets count once.
func countFindingPackages(diags []lint.Diagnostic) int {
	dirs := make(map[string]bool)
	for _, d := range diags {
		dirs[filepath.Dir(d.Pos.Filename)] = true
	}
	return len(dirs)
}
