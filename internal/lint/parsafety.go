package lint

import (
	"go/ast"
	"strings"
)

const parPkgPath = "qtenon/internal/par"

// parExecutors are the internal/par entry points that run their closure
// argument concurrently. Their closures receive index-partition
// parameters: Do(n, func(i)), For/Sum*(n, func(lo, hi)).
var parExecutors = map[string]bool{
	"For": true, "Do": true,
	"SumFloat64": true, "SumComplex": true,
}

// ParSafety enforces the deterministic-reduction idiom (DESIGN.md §6,
// §9.6): a closure handed to an internal/par executor — or launched with
// a bare go statement — runs concurrently with its siblings, so every
// write it performs must land in state partitioned by the closure's own
// index parameters (out[i] = …, chunk-local accumulation over [lo,hi))
// or in storage the closure itself created. Writes to captured
// variables, captured aggregates indexed by anything else, or captured
// maps are data races and, even when "benign", make the reduction order
// (and therefore the bit pattern of float results) depend on goroutine
// scheduling.
//
// The check reads the closure body only. A write made by a callee the
// closure calls is invisible to it; `go test -race` catches that one.
//
// The index-partition machinery itself lives in partitionScope
// (partition.go).
var ParSafety = &Analyzer{
	Name:   "parsafety",
	Doc:    "flag concurrent closures writing non-index-partitioned captured state",
	Design: "§6, §9.6",
	Run:    runParSafety,
}

const parSafetyRule = "concurrent closures may only write index-partitioned or closure-local state"

func runParSafety(pass *Pass) error {
	if pass.Pkg == nil || !strings.HasPrefix(pass.Pkg.Path(), "qtenon") {
		return nil
	}
	if pass.Pkg.Path() == parPkgPath {
		return nil // the executors' own internals are the trusted seam
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
					newPartitionScope(pass, lit, "go statement", parSafetyRule).walk()
				}
			case *ast.CallExpr:
				name, ok := parExecutorCall(pass, n)
				if !ok {
					return true
				}
				for _, arg := range n.Args {
					if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
						newPartitionScope(pass, lit, "par."+name, parSafetyRule).walk()
					}
				}
			}
			return true
		})
	}
	return nil
}

// parExecutorCall reports whether call invokes one of the internal/par
// executors, returning its name.
func parExecutorCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	pkgPath, name, ok := pass.PkgFunc(call)
	if !ok || pkgPath != parPkgPath || !parExecutors[name] {
		return "", false
	}
	return name, true
}
