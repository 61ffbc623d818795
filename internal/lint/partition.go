package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// partitionScope carries parsafety's index-partition reasoning: given
// one concurrently-executed closure, it tracks which identifiers are
// partition indices (the closure's int parameters plus closure-locals
// computed from them), walks write targets to their roots, and decides
// whether each write is confined to the closure's partition.
//
// The butterfly pairing `s1 := s0 | bit` needs no special case: s1 is a
// closure-local integer computed from the derived s0, so the derived-set
// growth pass makes it a partition index too.
type partitionScope struct {
	pass    *Pass
	lit     *ast.FuncLit
	where   string // launch site, for diagnostics ("par.For", "go statement")
	rule    string // trailing clause appended to every diagnostic
	derived map[types.Object]bool
	seen    map[token.Pos]bool
}

func newPartitionScope(pass *Pass, lit *ast.FuncLit, where, rule string) *partitionScope {
	sc := &partitionScope{
		pass:    pass,
		lit:     lit,
		where:   where,
		rule:    rule,
		derived: map[types.Object]bool{},
		seen:    map[token.Pos]bool{},
	}
	// derived starts as the closure's int parameters (the partition
	// indices) and grows with closure-locals computed from them — the
	// chunk idiom `for k := lo; k < hi; k++ { out[k] = … }` makes k a
	// partition index too.
	if lit.Type.Params != nil {
		for _, f := range lit.Type.Params.List {
			for _, name := range f.Names {
				obj := pass.TypesInfo.Defs[name]
				if obj == nil {
					continue
				}
				if b, ok := obj.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
					sc.derived[obj] = true
				}
			}
		}
	}
	// Grow the derived set: a closure-local integer assigned from an
	// expression mentioning a derived index is itself a partition index.
	// Two passes settle chains (k := lo; j := k).
	for pass2 := 0; pass2 < 2; pass2++ {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			a, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range a.Lhs {
				if len(a.Rhs) != len(a.Lhs) {
					break
				}
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := pass.ObjectOf(id)
				if obj == nil || !sc.isLitLocal(obj) || sc.derived[obj] {
					continue
				}
				if b, ok := obj.Type().Underlying().(*types.Basic); !ok || b.Info()&types.IsInteger == 0 {
					continue
				}
				if sc.mentionsDerived(a.Rhs[i]) {
					sc.derived[obj] = true
				}
			}
			return true
		})
	}
	return sc
}

func (sc *partitionScope) isLitLocal(obj types.Object) bool {
	return obj != nil && obj.Pos() >= sc.lit.Pos() && obj.Pos() <= sc.lit.End()
}

// mentionsDerived reports whether e references any partition index.
func (sc *partitionScope) mentionsDerived(e ast.Expr) bool {
	if e == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := sc.pass.ObjectOf(id); obj != nil && sc.derived[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// freeRoot walks a write target to its base object and reports it if
// that base is captured from outside the closure.
func (sc *partitionScope) freeRoot(e ast.Expr) (types.Object, bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := sc.pass.ObjectOf(x)
			if obj == nil || sc.isLitLocal(obj) {
				return nil, false
			}
			return obj, true
		case *ast.SelectorExpr:
			// A qualified identifier (pkg.Var) roots at the var; a field
			// access roots at its receiver chain.
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
				if _, isPkg := sc.pass.ObjectOf(id).(*types.PkgName); isPkg {
					obj := sc.pass.ObjectOf(x.Sel)
					if obj == nil || sc.isLitLocal(obj) {
						return nil, false
					}
					return obj, true
				}
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil, false
		}
	}
}

// anyIndexDerived reports whether some index step between the write
// target and its root mentions a partition index.
func (sc *partitionScope) anyIndexDerived(e ast.Expr) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			if sc.mentionsDerived(x.Index) {
				return true
			}
			e = x.X
		case *ast.SliceExpr:
			if sc.mentionsDerived(x.Low) || sc.mentionsDerived(x.High) || sc.mentionsDerived(x.Max) {
				return true
			}
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return false
		}
	}
}

// isMapStore reports whether the innermost index step of the write
// target indexes a map — always a race under concurrent writers,
// partition index or not.
func (sc *partitionScope) isMapStore(e ast.Expr) bool {
	ix, ok := ast.Unparen(e).(*ast.IndexExpr)
	if !ok {
		return false
	}
	t := sc.pass.TypeOf(ix.X)
	if t == nil {
		return false
	}
	_, isMap := t.Underlying().(*types.Map)
	return isMap
}

func (sc *partitionScope) reportf(pos token.Pos, format string, args ...any) {
	if sc.seen[pos] {
		return
	}
	sc.seen[pos] = true
	sc.pass.Reportf(pos, "%s closure %s; %s", sc.where, fmt.Sprintf(format, args...), sc.rule)
}

func (sc *partitionScope) checkWrite(target ast.Expr, isDefine bool) {
	switch ast.Unparen(target).(type) {
	case *ast.Ident:
		if isDefine {
			return
		}
		obj, free := sc.freeRoot(target)
		if free {
			sc.reportf(target.Pos(), "writes captured variable %q", obj.Name())
		}
	case *ast.IndexExpr, *ast.SelectorExpr, *ast.StarExpr, *ast.SliceExpr:
		obj, free := sc.freeRoot(target)
		if !free {
			return
		}
		if sc.isMapStore(target) {
			sc.reportf(target.Pos(), "writes captured map %q (concurrent map writes race even when keys are partitioned)", obj.Name())
			return
		}
		if !sc.anyIndexDerived(target) {
			sc.reportf(target.Pos(), "writes through captured %q without a partition index", obj.Name())
		}
	}
}

// walk runs the write checks over the closure body.
func (sc *partitionScope) walk() {
	ast.Inspect(sc.lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				sc.checkWrite(lhs, n.Tok == token.DEFINE)
			}
		case *ast.IncDecStmt:
			sc.checkWrite(n.X, false)
		}
		return true
	})
}
