package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// checkSnapImmut enforces the snapshot immutability invariant (DESIGN.md
// §10/§11): once a campaign snapshot is published through an atomic pointer,
// any number of goroutines read it with no locking — which is only sound if
// nothing ever writes to it again. The storm test catches a violation when it
// happens to race; this check refuses to compile one in.
//
// For each configured snapshot type the analyzer flags, outside the type's
// sanctioned writers:
//
//   - direct field writes: snap.Field = v, snap.Field += v, snap.Field++
//   - deep stores through snapshot-reachable state: snap.M[k] = v,
//     snap.Slice[i] = v, snap.Ptr.X = v, *snap = S{}, delete(snap.M, k),
//     clear(snap.M)
//   - aliased stores: q := snap.M; q[k] = v — locals of reference type
//     assigned from snapshot-reachable expressions are tainted within the
//     function, and stores through them report at the store site
//   - aliasing leaks: returning a snapshot-owned map or slice field, or
//     storing one into a struct field, composite literal, or package-level
//     variable, hands mutable state to code the invariant cannot see
//
// Sanctioned writers are the functions named in the rule's Writers set plus
// any function in the snapshot type's own package whose results include the
// snapshot type (its constructors); both must be declared in the type's
// package. The analysis is intraprocedural: values passed into calls cross
// its horizon, which is exactly why leaking aliases out of the snapshot is
// itself a finding. No directive suppresses a finding: code that needs a
// different snapshot builds one through a sanctioned writer.
func checkSnapImmut(pkg *Package, rules []SnapshotRule) []Diagnostic {
	c := &snapImmutChecker{pkg: pkg, rules: rules}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if c.isSanctionedWriter(fn) {
				continue
			}
			c.checkFunc(fn)
		}
	}
	return c.diags
}

// SnapshotRule configures one immutable snapshot type for checkSnapImmut.
type SnapshotRule struct {
	// Type is the qualified type name: "<import path>.<Name>", e.g.
	// "anyopt.Snapshot".
	Type string
	// Writers names the functions allowed to mutate the type; they must be
	// declared in the type's own package. Constructors (functions in that
	// package returning the type) are sanctioned implicitly.
	Writers map[string]bool
}

// pkgPath returns the import-path half of the qualified type name.
func (r SnapshotRule) pkgPath() string {
	if i := strings.LastIndex(r.Type, "."); i >= 0 {
		return r.Type[:i]
	}
	return ""
}

// DefaultSnapshotRules protects anyopt.Snapshot, the lock-free serving
// path's load-bearing immutable: System.publish is its only write point.
var DefaultSnapshotRules = []SnapshotRule{
	{Type: "anyopt.Snapshot", Writers: map[string]bool{"publish": true}},
}

type snapImmutChecker struct {
	pkg   *Package
	rules []SnapshotRule
	diags []Diagnostic

	// tainted holds reference-typed locals aliasing snapshot-reachable state
	// in the function currently being checked.
	tainted map[types.Object]bool
}

// snapshotRule resolves t (possibly behind one pointer) to a configured
// snapshot rule.
func (c *snapImmutChecker) snapshotRule(t types.Type) (SnapshotRule, bool) {
	if t == nil {
		return SnapshotRule{}, false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return SnapshotRule{}, false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return SnapshotRule{}, false
	}
	qual := obj.Pkg().Path() + "." + obj.Name()
	for _, r := range c.rules {
		if r.Type == qual {
			return r, true
		}
	}
	return SnapshotRule{}, false
}

// isSanctionedWriter reports whether fn may mutate a snapshot: a listed
// writer or a constructor, declared in the snapshot type's package.
func (c *snapImmutChecker) isSanctionedWriter(fn *ast.FuncDecl) bool {
	for _, r := range c.rules {
		if c.pkg.Path != r.pkgPath() {
			continue
		}
		if r.Writers[fn.Name.Name] {
			return true
		}
		// Constructors: any function here whose results include the type.
		if fn.Type.Results != nil {
			for _, res := range fn.Type.Results.List {
				if _, ok := c.snapshotRule(c.pkg.Info.TypeOf(res.Type)); ok {
					return true
				}
			}
		}
	}
	return false
}

func (c *snapImmutChecker) checkFunc(fn *ast.FuncDecl) {
	c.tainted = make(map[types.Object]bool)
	c.propagateTaint(fn.Body)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			c.checkAssign(s)
		case *ast.IncDecStmt:
			c.checkTarget(s, s.X)
		case *ast.CallExpr:
			c.checkCall(s)
		case *ast.ReturnStmt:
			for _, res := range s.Results {
				if owner, field, ok := c.snapOwnedRef(res); ok {
					c.report(s, "snapimmut", "returns snapshot-owned %s.%s; callers receive a mutable alias into an immutable %s — return a copy",
						types.ExprString(owner), field, c.typeName(owner))
				}
			}
		case *ast.CompositeLit:
			c.checkComposite(s)
		}
		return true
	})
}

// propagateTaint computes, to a fixed point, the reference-typed locals
// assigned (directly or transitively) from snapshot-reachable expressions.
func (c *snapImmutChecker) propagateTaint(body *ast.BlockStmt) {
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				if len(s.Lhs) != len(s.Rhs) {
					return true
				}
				for i, lhs := range s.Lhs {
					if c.taintFrom(lhs, s.Rhs[i]) {
						changed = true
					}
				}
			case *ast.ValueSpec:
				if len(s.Names) != len(s.Values) {
					return true
				}
				for i, name := range s.Names {
					if c.taintFrom(name, s.Values[i]) {
						changed = true
					}
				}
			}
			return true
		})
	}
}

// taintFrom marks lhs tainted when rhs reaches snapshot state; it reports
// whether the taint set grew.
func (c *snapImmutChecker) taintFrom(lhs ast.Expr, rhs ast.Expr) bool {
	id := identOf(lhs)
	if id == nil {
		return false
	}
	obj := c.objectOf(id)
	if obj == nil || c.tainted[obj] || !isRefType(c.pkg.Info.TypeOf(lhs)) {
		return false
	}
	// Package-level aliases are the leak check's business; taint tracks only
	// function-local aliases.
	if v, ok := obj.(*types.Var); ok && v.Parent() == c.pkg.Types.Scope() {
		return false
	}
	if c.reachesSnapshot(rhs) {
		c.tainted[obj] = true
		return true
	}
	return false
}

func (c *snapImmutChecker) objectOf(id *ast.Ident) types.Object {
	if obj := c.pkg.Info.Defs[id]; obj != nil {
		return obj
	}
	return c.pkg.Info.Uses[id]
}

// reachesSnapshot reports whether expr's selector/index chain passes through
// a snapshot-typed sub-expression or is rooted at a tainted local. Calls
// terminate the chain: values returned by functions are the callee's
// business.
func (c *snapImmutChecker) reachesSnapshot(e ast.Expr) bool {
	for {
		e = ast.Unparen(e)
		if _, ok := c.snapshotRule(c.pkg.Info.TypeOf(e)); ok {
			return true
		}
		switch x := e.(type) {
		case *ast.Ident:
			obj := c.objectOf(x)
			return obj != nil && c.tainted[obj]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return false
		}
	}
}

func (c *snapImmutChecker) checkAssign(s *ast.AssignStmt) {
	for i, lhs := range s.Lhs {
		if s.Tok == token.DEFINE {
			// New variables never write through the snapshot; taint handles
			// the alias they may create.
			continue
		}
		c.checkTarget(s, lhs)
		// Leak side: snapshot-owned reference stored somewhere that outlives
		// the local scope.
		var rhs ast.Expr
		if len(s.Rhs) == len(s.Lhs) {
			rhs = s.Rhs[i]
		} else {
			continue
		}
		owner, field, ok := c.snapOwnedRef(rhs)
		if !ok {
			continue
		}
		switch target := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			obj := c.objectOf(target)
			if v, isVar := obj.(*types.Var); isVar && v.Parent() == c.pkg.Types.Scope() {
				c.report(s, "snapimmut", "stores snapshot-owned %s.%s into package variable %s; the alias outlives the snapshot's immutability guarantee — store a copy",
					types.ExprString(owner), field, target.Name)
			}
		case *ast.SelectorExpr, *ast.IndexExpr:
			if !c.reachesSnapshot(lhs) {
				c.report(s, "snapimmut", "stores snapshot-owned %s.%s into %s; a mutable alias escapes the immutable %s — store a copy",
					types.ExprString(owner), field, types.ExprString(lhs), c.typeName(owner))
			}
		}
	}
}

// checkTarget flags a write whose target is a snapshot field or reaches one.
func (c *snapImmutChecker) checkTarget(at ast.Node, lhs ast.Expr) {
	lhs = ast.Unparen(lhs)
	if sel, ok := lhs.(*ast.SelectorExpr); ok {
		if rule, ok := c.snapshotRule(c.pkg.Info.TypeOf(sel.X)); ok {
			if c.isField(sel) {
				c.report(at, "snapimmut", "write to %s.%s outside its sanctioned writers (%s); published snapshots are immutable — build a fresh snapshot instead",
					c.typeName(sel.X), sel.Sel.Name, writerNames(rule))
				return
			}
		}
	}
	if c.reachesSnapshot(lhs) {
		c.report(at, "snapimmut", "store through snapshot-owned %s; published snapshots and everything reachable from them are immutable — mutate a copy and republish",
			types.ExprString(lhs))
	}
}

// checkCall flags builtin delete/clear on snapshot-reachable maps.
func (c *snapImmutChecker) checkCall(call *ast.CallExpr) {
	id := identOf(call.Fun)
	if id == nil || len(call.Args) == 0 {
		return
	}
	b, ok := c.pkg.Info.Uses[id].(*types.Builtin)
	if !ok || (b.Name() != "delete" && b.Name() != "clear") {
		return
	}
	if c.reachesSnapshot(call.Args[0]) {
		c.report(call, "snapimmut", "%s on snapshot-owned %s; published snapshots are immutable — mutate a copy and republish",
			b.Name(), types.ExprString(call.Args[0]))
	}
}

// checkComposite flags snapshot-owned references captured by composite
// literals (struct dumps, response maps): the literal's lifetime is unknown,
// so the alias must be severed with a copy.
func (c *snapImmutChecker) checkComposite(lit *ast.CompositeLit) {
	for _, elt := range lit.Elts {
		v := elt
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			v = kv.Value
		}
		if owner, field, ok := c.snapOwnedRef(v); ok {
			c.report(elt, "snapimmut", "composite literal captures snapshot-owned %s.%s; a mutable alias escapes the immutable %s — insert a copy",
				types.ExprString(owner), field, c.typeName(owner))
		}
	}
}

// snapOwnedRef reports whether e is a direct map- or slice-typed field
// selection on a snapshot value, returning the owner expression and field
// name.
func (c *snapImmutChecker) snapOwnedRef(e ast.Expr) (owner ast.Expr, field string, ok bool) {
	sel, isSel := ast.Unparen(e).(*ast.SelectorExpr)
	if !isSel || !c.isField(sel) {
		return nil, "", false
	}
	if _, isSnap := c.snapshotRule(c.pkg.Info.TypeOf(sel.X)); !isSnap {
		return nil, "", false
	}
	switch c.pkg.Info.TypeOf(sel).Underlying().(type) {
	case *types.Map, *types.Slice:
		return sel.X, sel.Sel.Name, true
	}
	return nil, "", false
}

// isField reports whether sel selects a struct field (not a method).
func (c *snapImmutChecker) isField(sel *ast.SelectorExpr) bool {
	s := c.pkg.Info.Selections[sel]
	return s != nil && s.Kind() == types.FieldVal
}

func (c *snapImmutChecker) typeName(e ast.Expr) string {
	t := c.pkg.Info.TypeOf(e)
	if t == nil {
		return "snapshot"
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

func writerNames(r SnapshotRule) string {
	names := make([]string, 0, len(r.Writers))
	for w := range r.Writers {
		names = append(names, w)
	}
	if len(names) == 0 {
		return "its constructors"
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func (c *snapImmutChecker) report(n ast.Node, check, format string, args ...any) {
	c.diags = append(c.diags, Diagnostic{
		Pos:     c.pkg.Fset.Position(n.Pos()),
		Check:   check,
		Message: fmt.Sprintf(format, args...),
	})
}

func isRefType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Map, *types.Slice, *types.Pointer:
		return true
	}
	return false
}
