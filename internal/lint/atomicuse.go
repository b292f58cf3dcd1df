package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// checkAtomicUse enforces the atomic-field discipline behind the lock-free
// read path: a sync/atomic field (atomic.Pointer, the atomic counters) is a
// synchronization point, and the only sound way to touch one is through its
// Load/Store/Add/Swap/CompareAndSwap methods. Anything else — taking its
// address, copying it into a variable, comparing it, passing it to a call —
// either races or silently snapshots the value outside the memory model the
// surrounding code was proven against.
//
// Guarded fields go further: their mutating methods (Store, Swap, Add,
// CompareAndSwap, ...) may be called only from the functions named in the
// guard's writer set. System.snap is the canonical case — every campaign
// publication must flow through System.publish, or the single-write-point
// argument in DESIGN.md §10 is fiction. A plain read mixed in, or an ad-hoc
// mutex pretending to guard the field, shows up as an out-of-discipline
// access at the site that performs it. Suppress only with
// `//lint:mutinvariant <reason>`.
func checkAtomicUse(pkg *Package, ann *annotations, guards []AtomicGuard) []Diagnostic {
	c := &atomicUseChecker{pkg: pkg, ann: ann, guards: guards, sanctioned: make(map[ast.Node]bool)}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			c.checkFunc(fn)
		}
	}
	return c.diags
}

// AtomicGuard restricts who may mutate one atomic field.
type AtomicGuard struct {
	// Struct is the qualified owning type: "<import path>.<Name>".
	Struct string
	// Field is the atomic field's name.
	Field string
	// Writers names the functions allowed to call mutating methods (Store,
	// Swap, Add, CompareAndSwap, Or, And) on the field. Load stays free.
	Writers map[string]bool
}

// DefaultAtomicGuards pins the System's snapshot pointer and generation
// counter to the one campaign write point, System.publish (InstallCampaign
// and PatchCampaign both end there).
var DefaultAtomicGuards = []AtomicGuard{
	{Struct: "anyopt.System", Field: "snap", Writers: map[string]bool{"publish": true}},
	{Struct: "anyopt.System", Field: "gen", Writers: map[string]bool{"publish": true}},
}

// atomicMethods are the sync/atomic value methods; mutating ones are marked
// true.
var atomicMethods = map[string]bool{
	"Load":  false,
	"Store": true, "Swap": true, "Add": true,
	"CompareAndSwap": true, "Or": true, "And": true,
}

type atomicUseChecker struct {
	pkg    *Package
	ann    *annotations
	guards []AtomicGuard
	diags  []Diagnostic

	// sanctioned marks atomic-field selector nodes consumed by an allowed
	// method call; any atomic-field selector not in here is out of
	// discipline.
	sanctioned map[ast.Node]bool
}

func (c *atomicUseChecker) checkFunc(fn *ast.FuncDecl) {
	// Pass 1: bless selectors used as receivers of atomic method calls and
	// enforce writer sets on mutators.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		method, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		recv := ast.Unparen(method.X)
		sel, ok := recv.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		owner, field, ok := c.atomicField(sel)
		if !ok {
			return true
		}
		mutates, known := atomicMethods[method.Sel.Name]
		if !known {
			return true // not an atomic API method; pass 2 will flag the field use
		}
		c.sanctioned[sel] = true
		if mutates {
			if g, guarded := c.guardFor(owner, field); guarded && !g.Writers[fn.Name.Name] {
				c.report(call, "%s.%s.%s outside its writer set (%s); this atomic field has a single sanctioned write point",
					owner, field, method.Sel.Name, writerList(g))
			}
		}
		return true
	})
	// Pass 2: any remaining atomic-field selector is a plain (non-method)
	// use: address-of, copy, comparison, call argument.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || c.sanctioned[sel] {
			return true
		}
		owner, field, ok := c.atomicField(sel)
		if !ok {
			return true
		}
		c.report(sel, "%s.%s accessed outside the atomic Load/Store/Add discipline; plain reads, copies, and address-taking race with lock-free readers",
			owner, field)
		return true
	})
}

// atomicField resolves sel to (owning type, field name) when it selects a
// struct field whose type lives in sync/atomic.
func (c *atomicUseChecker) atomicField(sel *ast.SelectorExpr) (owner, field string, ok bool) {
	s := c.pkg.Info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return "", "", false
	}
	if !isAtomicType(s.Obj().Type()) {
		return "", "", false
	}
	return qualifiedName(s.Recv()), sel.Sel.Name, true
}

func (c *atomicUseChecker) guardFor(owner, field string) (AtomicGuard, bool) {
	for _, g := range c.guards {
		if g.Struct == owner && g.Field == field {
			return g, true
		}
	}
	return AtomicGuard{}, false
}

func (c *atomicUseChecker) report(n ast.Node, format string, args ...any) {
	if c.ann.suppressedBy(mutInvariantDirective, c.pkg.Fset, n) {
		return
	}
	c.diags = append(c.diags, Diagnostic{
		Pos:     c.pkg.Fset.Position(n.Pos()),
		Check:   "atomicuse",
		Message: fmt.Sprintf(format, args...) + "; or annotate //lint:mutinvariant with a reason",
	})
}

// isAtomicType reports whether t is a named type from sync/atomic (including
// instantiations of atomic.Pointer[T]).
func isAtomicType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// qualifiedName renders a (possibly pointer) named type as
// "<import path>.<Name>" for guard matching.
func qualifiedName(t types.Type) string {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return t.String()
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

func writerList(g AtomicGuard) string {
	names := make([]string, 0, len(g.Writers))
	for w := range g.Writers {
		names = append(names, w)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
