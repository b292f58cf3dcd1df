package lint

import "go/ast"

// checkNoGo bans `go` statements outside the policy table's designated
// goroutine owners. In simulator packages every goroutine is a scheduling
// dependency the determinism proof cannot see; everywhere else an ad-hoc
// goroutine is concurrency the snapshot model does not account for.
// Parallelism routes through internal/exec's worker pool, which assigns all
// inputs before any work is scheduled; background work belongs to the
// explicit owners (exec, bgp/speaker, orchestrator, api).
func checkNoGo(pkg *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				diags = append(diags, Diagnostic{
					Pos:     pkg.Fset.Position(g.Pos()),
					Check:   "nogo",
					Message: "go statement outside a designated goroutine owner; route parallelism through internal/exec's worker pool",
				})
			}
			return true
		})
	}
	return diags
}
