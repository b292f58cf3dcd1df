package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// checkMapOrder flags `range` statements over maps whose bodies perform
// order-sensitive writes. Go randomizes map iteration order on every run, so
// feeding it into a slice, writer, channel, or store makes the result differ
// between runs — exactly the nondeterminism the simulator must exclude.
//
// A loop is accepted when its writes are provably order-insensitive:
//
//   - writes into maps (m[k] = v, delete) — keyed, order cannot matter
//   - commutative numeric accumulation (+=, *=, |=, &=, ^=, ++, --)
//   - writes to variables declared inside the loop body
//   - slice writes indexed by the range key itself (s[k] = v)
//   - appends to a slice that is sorted later in the same function
//
// Anything else needs the keys sorted before iteration.
func checkMapOrder(pkg *Package) []Diagnostic {
	c := &mapOrderChecker{pkg: pkg}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					c.checkFuncBody(fn.Body)
				}
				return false
			}
			return true
		})
	}
	return c.diags
}

type mapOrderChecker struct {
	pkg   *Package
	diags []Diagnostic
}

// checkFuncBody scans one function body (recursing into function literals,
// each of which becomes its own sort-exemption scope).
func (c *mapOrderChecker) checkFuncBody(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			c.checkFuncBody(s.Body)
			return false
		case *ast.RangeStmt:
			if c.isMapRange(s) {
				c.checkRange(s, body)
			}
		}
		return true
	})
}

func (c *mapOrderChecker) isMapRange(s *ast.RangeStmt) bool {
	t := c.pkg.Info.TypeOf(s.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// checkRange analyzes one map-range statement inside funcBody.
func (c *mapOrderChecker) checkRange(rng *ast.RangeStmt, funcBody *ast.BlockStmt) {
	keyObj := c.identObject(rng.Key)
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			return false // a deferred/spawned closure is a different story
		case *ast.RangeStmt:
			if s != rng && c.isMapRange(s) {
				return false // nested map ranges report independently
			}
		case *ast.SendStmt:
			if obj := c.rootObject(s.Chan); c.outside(obj, rng) {
				c.report(s.Pos(), rng, "sends to channel %s", types.ExprString(s.Chan))
			}
		case *ast.IncDecStmt:
			return false // counters commute
		case *ast.AssignStmt:
			c.checkAssign(s, rng, keyObj, funcBody)
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				c.checkCall(call, rng)
			}
		}
		return true
	})
}

// checkAssign classifies one assignment inside a map-range body.
func (c *mapOrderChecker) checkAssign(s *ast.AssignStmt, rng *ast.RangeStmt, keyObj types.Object, funcBody *ast.BlockStmt) {
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
		token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN, token.AND_NOT_ASSIGN:
		// Commutative accumulation on numbers is order-insensitive; string
		// concatenation is not.
		for _, lhs := range s.Lhs {
			if t := c.pkg.Info.TypeOf(lhs); t != nil && isStringy(t) {
				if obj := c.rootObject(lhs); c.outside(obj, rng) {
					c.report(s.Pos(), rng, "concatenates onto string %s", types.ExprString(lhs))
				}
			}
		}
		return
	case token.ASSIGN, token.DEFINE:
	default:
		return
	}
	for i, lhs := range s.Lhs {
		// Writes into maps are keyed and therefore order-insensitive.
		if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			base := c.pkg.Info.TypeOf(idx.X)
			if base != nil {
				switch base.Underlying().(type) {
				case *types.Map:
					continue
				case *types.Slice, *types.Array, *types.Pointer:
					// s[k] = v (or s[k-1] = v, any index computed from the
					// key alone) writes a key-distinct slot: keyed, so order
					// cannot matter.
					if keyObj != nil && c.keyDerived(idx.Index, keyObj) {
						continue
					}
					if obj := c.rootObject(idx.X); c.outside(obj, rng) {
						c.report(s.Pos(), rng, "writes element of %s at a loop-dependent position", types.ExprString(idx.X))
					}
					continue
				}
			}
		}
		// append onto an outside slice: order-sensitive unless sorted later.
		var rhs ast.Expr
		if len(s.Rhs) == len(s.Lhs) {
			rhs = s.Rhs[i]
		} else {
			rhs = s.Rhs[0] // tuple assignment from one call
		}
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
			if c.isBuiltinAppend(call) {
				obj := c.rootObject(lhs)
				if c.outside(obj, rng) && !c.sortedAfter(lhs, rng, funcBody) {
					c.report(s.Pos(), rng, "appends to slice %s, which is never sorted afterwards", types.ExprString(lhs))
				}
			} else {
				c.checkCall(call, rng)
			}
		}
	}
}

// checkCall flags calls that push loop data into writers or stores.
func (c *mapOrderChecker) checkCall(call *ast.CallExpr, rng *ast.RangeStmt) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	// Package-level printers: fmt.Fprint*/Print* and the log package write
	// to a stream in call order.
	if pkgName, ok := c.pkg.Info.Uses[identOf(sel.X)].(*types.PkgName); ok {
		path := pkgName.Imported().Path()
		name := sel.Sel.Name
		if path == "fmt" && strings.HasPrefix(name, "Fprint") && len(call.Args) > 0 {
			if c.outside(c.rootObject(call.Args[0]), rng) {
				c.report(call.Pos(), rng, "writes to %s via fmt.%s", types.ExprString(call.Args[0]), name)
			}
			return
		}
		if path == "fmt" && strings.HasPrefix(name, "Print") {
			c.report(call.Pos(), rng, "prints to stdout via fmt.%s", name)
			return
		}
		if path == "log" {
			c.report(call.Pos(), rng, "logs via log.%s", sel.Sel.Name)
			return
		}
		return
	}
	// Method calls on outside receivers that look like sequenced writes:
	// either the receiver implements io.Writer, or the method name says it
	// records/appends state (prefs.Store.RecordOrdered, Table.AddRow, ...).
	recvObj := c.rootObject(sel.X)
	if !c.outside(recvObj, rng) {
		return
	}
	if c.pkg.Info.Selections[sel] == nil {
		return // not a method call (qualified type conversion etc.)
	}
	recvType := c.pkg.Info.TypeOf(sel.X)
	if recvType == nil {
		return
	}
	if implementsWriter(recvType) {
		c.report(call.Pos(), rng, "writes to %s (an io.Writer) in map order", types.ExprString(sel.X))
		return
	}
	if isStoreMethodName(sel.Sel.Name) {
		c.report(call.Pos(), rng, "calls %s.%s, which records results in map order", types.ExprString(sel.X), sel.Sel.Name)
	}
}

// storeMethodPrefixes mark methods that sequence their arguments into the
// receiver. Keyed setters (Set, Put) are excluded: like map writes, they are
// naturally order-insensitive.
var storeMethodPrefixes = []string{
	"Add", "Append", "Record", "Push", "Insert", "Write", "Print",
	"Emit", "Enqueue", "Log", "Send",
}

func isStoreMethodName(name string) bool {
	for _, p := range storeMethodPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// keyDerived reports whether every identifier in an index expression
// resolves to the range key (constants and conversions are fine): such an
// index is injective in the key, so the write is keyed.
func (c *mapOrderChecker) keyDerived(idx ast.Expr, keyObj types.Object) bool {
	derived := true
	sawKey := false
	ast.Inspect(idx, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := c.objectOf(id)
		switch {
		case obj == keyObj:
			sawKey = true
		case obj == nil, isConstOrType(obj):
		default:
			derived = false
		}
		return true
	})
	return derived && sawKey
}

func isConstOrType(obj types.Object) bool {
	switch obj.(type) {
	case *types.Const, *types.TypeName, *types.Builtin:
		return true
	}
	return false
}

// sortedAfter reports whether expr is passed to a recognized sorting function
// after the range statement, anywhere later in the enclosing function body.
func (c *mapOrderChecker) sortedAfter(expr ast.Expr, rng *ast.RangeStmt, funcBody *ast.BlockStmt) bool {
	want := types.ExprString(expr)
	found := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || len(call.Args) == 0 {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgName, ok := c.pkg.Info.Uses[identOf(sel.X)].(*types.PkgName)
		if !ok {
			return true
		}
		path := pkgName.Imported().Path()
		if (path == "sort" || path == "slices") && strings.HasPrefix(sel.Sel.Name, "Sort") ||
			path == "sort" && (sel.Sel.Name == "Slice" || sel.Sel.Name == "SliceStable" ||
				sel.Sel.Name == "Strings" || sel.Sel.Name == "Ints" || sel.Sel.Name == "Float64s") {
			if types.ExprString(call.Args[0]) == want {
				found = true
			}
		}
		return true
	})
	return found
}

func (c *mapOrderChecker) isBuiltinAppend(call *ast.CallExpr) bool {
	id := identOf(call.Fun)
	if id == nil {
		return false
	}
	b, ok := c.pkg.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// rootObject unwraps an expression to its base identifier's object: t.rows
// roots at t, s[i] at s, (*p).x at p.
func (c *mapOrderChecker) rootObject(e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return c.objectOf(x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func (c *mapOrderChecker) identObject(e ast.Expr) types.Object {
	id := identOf(e)
	if id == nil {
		return nil
	}
	return c.objectOf(id)
}

func (c *mapOrderChecker) objectOf(id *ast.Ident) types.Object {
	if obj := c.pkg.Info.Defs[id]; obj != nil {
		return obj
	}
	return c.pkg.Info.Uses[id]
}

// outside reports whether obj is declared outside the range statement (and
// therefore survives it). Unresolvable roots count as outside, erring toward
// reporting.
func (c *mapOrderChecker) outside(obj types.Object, rng *ast.RangeStmt) bool {
	if obj == nil {
		return true
	}
	return obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
}

func (c *mapOrderChecker) report(pos token.Pos, rng *ast.RangeStmt, format string, args ...any) {
	c.diags = append(c.diags, Diagnostic{
		Pos:   c.pkg.Fset.Position(pos),
		Check: "maporder",
		Message: fmt.Sprintf("map iteration %s: ", types.ExprString(rng.X)) +
			fmt.Sprintf(format, args...) +
			"; iterate sorted keys",
	})
}

func identOf(e ast.Expr) *ast.Ident {
	id, _ := ast.Unparen(e).(*ast.Ident)
	return id
}

func isStringy(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// implementsWriter reports whether t (or *t) has a Write([]byte) (int, error)
// method — the structural io.Writer contract.
func implementsWriter(t types.Type) bool {
	if types.Implements(t, writerIface) {
		return true
	}
	if _, ok := t.(*types.Pointer); !ok {
		return types.Implements(types.NewPointer(t), writerIface)
	}
	return false
}

// writerIface is io.Writer built structurally, so the check works even when
// the linted package never imports io.
var writerIface = func() *types.Interface {
	errType := types.Universe.Lookup("error").Type()
	sig := types.NewSignatureType(nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "p", types.NewSlice(types.Typ[types.Byte]))),
		types.NewTuple(types.NewVar(token.NoPos, nil, "n", types.Typ[types.Int]),
			types.NewVar(token.NoPos, nil, "err", errType)),
		false)
	fn := types.NewFunc(token.NoPos, nil, "Write", sig)
	iface := types.NewInterfaceType([]*types.Func{fn}, nil)
	iface.Complete()
	return iface
}()
