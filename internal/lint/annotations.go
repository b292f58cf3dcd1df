package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// orderInvariantDirective suppresses a maporder finding. It must carry a
// reason:
//
//	//lint:orderinvariant result is a set; downstream consumers sort it
//
// placed on the line of the flagged statement or the line directly above it.
// It is the only suppression directive.
const orderInvariantDirective = "lint:orderinvariant"

// annotations records where suppression directives appear.
type annotations struct {
	// lines maps file name -> set of line numbers carrying a valid
	// (reasoned) directive.
	lines map[string]map[int]bool
	// diags reports malformed directives (missing reason).
	diags []Diagnostic
}

// collectAnnotations scans a package's comments for lint directives.
func collectAnnotations(pkg *Package) *annotations {
	ann := &annotations{lines: make(map[string]map[int]bool)}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				reason, ok := strings.CutPrefix(text, orderInvariantDirective)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				if strings.TrimSpace(reason) == "" {
					ann.diags = append(ann.diags, Diagnostic{
						Pos:     pos,
						Check:   "maporder",
						Message: "//" + orderInvariantDirective + " requires a reason explaining why the invariant holds here",
					})
					continue
				}
				lines := ann.lines[pos.Filename]
				if lines == nil {
					lines = make(map[int]bool)
					ann.lines[pos.Filename] = lines
				}
				lines[pos.Line] = true
			}
		}
	}
	return ann
}

// suppressed reports whether a node is covered by a directive on its own line
// or the line above.
func (a *annotations) suppressed(fset *token.FileSet, node ast.Node) bool {
	pos := fset.Position(node.Pos())
	lines := a.lines[pos.Filename]
	return lines[pos.Line] || lines[pos.Line-1]
}
