package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// BitExact guards the bit-for-bit cross-engine equivalence contract
// (DESIGN.md §11–§13, §14.2) inside kernel files — files containing at
// least one //qtenon:hotpath function. Every engine is fuzzed `==`
// against the dense reference, so a kernel rewrite that is merely
// mathematically equivalent (but rounds differently) breaks goldens and
// the shard/tableau equivalence suites. Flagged constructs:
//
//   - math.FMA: fuses the multiply-add rounding step, diverging from
//     the separately-rounded expression every other engine evaluates;
//   - float/complex accumulation over map iteration: map order is
//     randomized per run, and float addition does not commute in bits;
//   - float/complex accumulation into captured state inside a par.For /
//     par.Do closure: the reduction order follows goroutine scheduling;
//     route reductions through par.SumFloat64/SumComplex, whose
//     chunk-ordered fold is deterministic;
//   - unparenthesized additive chains over ≥3 multiplicative terms
//     (a*b − c*d + e*f …): the recorded kernel shape pairs the re/im
//     products explicitly — (a*b − c*d) + (e*f − g*h) — so a rewrite
//     that reassociates is visible in the diff. Adding the explicit
//     parentheses matching Go's left-associative evaluation is
//     bit-identical and silences the finding.
var BitExact = &Analyzer{
	Name:   "bitexact",
	Doc:    "flag rounding- and order-sensitive constructs in hotpath kernel files",
	Design: "§14.2",
	Run:    runBitExact,
}

func runBitExact(pass *Pass) error {
	if pass.Pkg == nil || !strings.HasPrefix(pass.Pkg.Path(), "qtenon") {
		return nil
	}
	for _, file := range pass.Files {
		if !hotpathFile(file) {
			continue
		}
		be := &bitExact{pass: pass, chains: map[ast.Node]bool{}}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if pkg, name, ok := pass.PkgFunc(n); ok && pkg == "math" && name == "FMA" {
					pass.Reportf(n.Pos(), "math.FMA fuses the multiply-add rounding step; kernels must round like the dense reference (DESIGN.md §14.2)")
				}
				if name, ok := parExecutorCall(pass, n); ok && (name == "For" || name == "Do") {
					for _, arg := range n.Args {
						if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
							be.checkClosureAccum(lit, "par."+name)
						}
					}
				}
			case *ast.RangeStmt:
				be.checkMapRangeAccum(n)
			case *ast.BinaryExpr:
				be.checkChain(n)
			}
			return true
		})
	}
	return nil
}

type bitExact struct {
	pass *Pass
	// chains marks BinaryExprs already counted as part of a maximal
	// additive chain, so nested sub-chains report once.
	chains map[ast.Node]bool
}

func (be *bitExact) isFloatish(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// floatAccum reports whether stmt accumulates into a float/complex
// lvalue: `x += e`, `x -= e`, or `x = x + e`-shaped self-reference.
func (be *bitExact) floatAccum(stmt ast.Stmt) (token.Pos, bool) {
	a, ok := stmt.(*ast.AssignStmt)
	if !ok || len(a.Lhs) != 1 {
		return token.NoPos, false
	}
	if !be.isFloatish(be.pass.TypeOf(a.Lhs[0])) {
		return token.NoPos, false
	}
	switch a.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN:
		return a.Pos(), true
	case token.ASSIGN:
		lhs := exprString(a.Lhs[0])
		if lhs == "" || len(a.Rhs) != 1 {
			return token.NoPos, false
		}
		bin, ok := ast.Unparen(a.Rhs[0]).(*ast.BinaryExpr)
		if !ok || (bin.Op != token.ADD && bin.Op != token.SUB) {
			return token.NoPos, false
		}
		if exprString(bin.X) == lhs {
			return a.Pos(), true
		}
	}
	return token.NoPos, false
}

// checkMapRangeAccum flags float accumulation whose iteration order is
// the randomized map order.
func (be *bitExact) checkMapRangeAccum(r *ast.RangeStmt) {
	t := be.pass.TypeOf(r.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	ast.Inspect(r.Body, func(n ast.Node) bool {
		if stmt, ok := n.(ast.Stmt); ok {
			if pos, acc := be.floatAccum(stmt); acc {
				be.pass.Reportf(pos, "float accumulation over map iteration: map order is randomized, so the sum's bit pattern varies run to run (DESIGN.md §14.2)")
			}
		}
		return true
	})
}

// checkClosureAccum flags float accumulation into non-closure-local
// state inside a concurrently-executed par.For/Do closure — a reduction
// whose order follows goroutine scheduling instead of par's
// chunk-ordered fold.
func (be *bitExact) checkClosureAccum(lit *ast.FuncLit, where string) {
	isLitLocal := func(obj types.Object) bool {
		return obj != nil && obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End()
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		stmt, ok := n.(ast.Stmt)
		if !ok {
			return true
		}
		pos, acc := be.floatAccum(stmt)
		if !acc {
			return true
		}
		a := stmt.(*ast.AssignStmt)
		// Root the accumulator: only captured targets are schedule-ordered.
		root := a.Lhs[0]
		for {
			switch x := ast.Unparen(root).(type) {
			case *ast.IndexExpr:
				root = x.X
				continue
			case *ast.SelectorExpr:
				root = x.X
				continue
			case *ast.StarExpr:
				root = x.X
				continue
			}
			break
		}
		if id, ok := ast.Unparen(root).(*ast.Ident); ok {
			if isLitLocal(be.pass.ObjectOf(id)) {
				return true // chunk-local partial: the sanctioned shape
			}
		}
		be.pass.Reportf(pos, "float reduction inside a %s closure follows goroutine scheduling; route it through par.SumFloat64/SumComplex's chunk-ordered fold (DESIGN.md §14.2)", where)
		return true
	})
}

// checkChain flags a maximal additive float/complex chain with ≥3 bare
// multiplicative leaves: the recorded kernel expression shape pairs
// products in explicit parentheses, so an unparenthesized chain is
// either a new kernel (write the pairing down) or a reassociating
// rewrite of an old one.
func (be *bitExact) checkChain(bin *ast.BinaryExpr) {
	if be.chains[bin] {
		return
	}
	if bin.Op != token.ADD && bin.Op != token.SUB {
		return
	}
	if !be.isFloatish(be.pass.TypeOf(bin)) {
		return
	}
	leaves := 0
	var mark func(e ast.Expr)
	mark = func(e ast.Expr) {
		// Deliberately do NOT unwrap ParenExpr: parentheses are the
		// recorded pairing and stop the chain.
		switch x := e.(type) {
		case *ast.BinaryExpr:
			switch x.Op {
			case token.ADD, token.SUB:
				be.chains[x] = true
				mark(x.X)
				mark(x.Y)
				return
			case token.MUL, token.QUO:
				leaves++
				return
			}
		}
	}
	mark(bin)
	if leaves >= 3 {
		be.pass.Reportf(bin.Pos(), "additive chain over %d multiplicative terms without recorded pairing; parenthesize the (a*b − c*d) pairs so reassociation is visible (DESIGN.md §11, §14.2)", leaves)
	}
}
