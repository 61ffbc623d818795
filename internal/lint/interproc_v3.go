package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// This file is the v3 extension of the interprocedural layer (DESIGN.md
// §14): two further per-function summary dimensions computed inside the
// same monotone fixpoint as the retain/mutate/flow bitsets.
//
//   - allocation: may this function heap-allocate in steady state,
//     transitively through its in-program callees? The hotpath analyzer
//     proves //qtenon:hotpath-annotated functions allocation-free with
//     it. Unlike the aliasing dimensions, the optimistic-inert stance
//     inverts here: an unknown callee (stdlib, export-data-only) is
//     assumed to allocate unless it is on the curated allowlists below,
//     because "probably fine" is exactly how allocations creep into a
//     hot loop.
//   - write-target: where do this function's stores land? The existing
//     mutates bitset already answers "which parameter"; the v3 fact adds
//     the bucket that escapes every partition — package-level state —
//     which shardsafety (a concurrent closure must confine writes to its
//     chunk) and routepurity (selection must not perturb any global)
//     both consume. Alongside it rides the seam dimension: transitive
//     calls into internal/rng, internal/wallclock, internal/metrics,
//     time.Now, or a math/rand package-level stream, which routepurity
//     forbids on the selection path outright.
//
// Steady-state, not literally-never: the repository's arena idiom grows
// scratch capacity on first use and recycles it forever after. The
// allocation scan therefore exempts cold-path shapes the idiom is built
// from (see coldRanges) — an if-block guarded by a nil/len/cap test or a
// build-gated boolean constant, the code after a cap-guarded early
// return, panic arguments, error-typed return operands, and the
// field-rooted self-append `x.f = append(x.f, …)`. Everything
// unconditional is an allocation site.

// allocFreePkgs are external packages whose functions are trusted not to
// heap-allocate: pure float/bit math. Everything else outside the
// program is assumed to allocate.
var allocFreePkgs = map[string]bool{
	"math":       true,
	"math/bits":  true,
	"math/cmplx": true,
}

// allocFreeFuncs are in-module functions the allocation dimension
// accepts by fiat. The internal/par executors allocate one job header
// per parallel dispatch and one partials buffer per reduction — a
// bounded, amortized-across-2¹³-element cost that is the sanctioned way
// for a hot path to fan out (DESIGN.md §6, §14); summarizing their
// bodies honestly would make every kernel "allocating" and drown the
// signal.
var allocFreeFuncs = map[string]bool{
	"qtenon/internal/par.For":        true,
	"qtenon/internal/par.Do":         true,
	"qtenon/internal/par.SumFloat64": true,
	"qtenon/internal/par.SumComplex": true,
	"qtenon/internal/par.Workers":    true,
}

// seamPkgs maps a package path to why calling into it taints the caller
// for routepurity.
var seamPkgs = map[string]string{
	"qtenon/internal/rng":       "the seeded-RNG seam",
	"qtenon/internal/wallclock": "the wall-clock seam",
	"qtenon/internal/metrics":   "the metrics registry",
}

// summarizeV3 folds the allocation and write-target/seam facts into
// sum; reports whether it grew. Each fact is set-once (monotone), so a
// function already proven allocating is never rescanned.
func summarizeV3(p *Program, fi *FuncInfo, sum *FuncSummary) bool {
	changed := false
	if sum.allocSite == "" {
		scanAllocSites(p, fi, func(pos token.Pos, msg string) bool {
			sum.allocSite = fmt.Sprintf("%s: %s", shortPos(fi.Pkg.Fset, pos), msg)
			changed = true
			return false // first witness is enough for the summary
		})
	}
	if sum.globalSite == "" || sum.seamSite == "" {
		scanEffects(p, fi, sum, &changed)
	}
	return changed
}

// shortPos renders pos as "file.go:line" for embedding in summaries and
// diagnostics.
func shortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

// ---- allocation scanning ----

type posRange struct{ lo, hi token.Pos }

// scanAllocSites walks fi's body and reports every steady-state
// heap-allocation site: direct allocations, constructs that force one
// (interface boxing, string conversions, escaping closures, goroutines),
// and calls to callees without an alloc-free summary. Cold-path shapes
// (coldRanges) are skipped. report returns false to stop the walk.
// Shared by the summarizer (first witness) and the hotpath analyzer
// (every witness).
func scanAllocSites(prog *Program, fi *FuncInfo, report func(pos token.Pos, msg string) bool) {
	sc := &allocScan{
		prog:    prog,
		fi:      fi,
		info:    fi.Pkg.Info,
		fset:    fi.Pkg.Fset,
		exempt:  coldRanges(fi),
		allowed: map[*ast.FuncLit]bool{},
		handled: map[ast.Node]bool{},
	}
	sc.markAllowedLits(fi.Decl.Body)
	stop := false
	sc.report = func(pos token.Pos, format string, args ...any) bool {
		if !report(pos, fmt.Sprintf(format, args...)) {
			stop = true
		}
		return !stop
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if stop || n == nil {
			return false
		}
		if sc.inExempt(n.Pos()) {
			return false
		}
		return sc.visit(n)
	})
}

type allocScan struct {
	prog   *Program
	fi     *FuncInfo
	info   *types.Info
	fset   *token.FileSet
	exempt []posRange
	// allowed marks function literals that stay in the caller's frame:
	// arguments to non-retaining callees (the par executors above all),
	// deferred calls, and immediately-invoked literals.
	allowed map[*ast.FuncLit]bool
	// handled suppresses double reports: a composite literal inside &T{…}
	// is reported at the address-of site, an append inside the
	// self-append idiom is exempt.
	handled map[ast.Node]bool
	report  func(pos token.Pos, format string, args ...any) bool
}

func (sc *allocScan) inExempt(pos token.Pos) bool {
	for _, r := range sc.exempt {
		if pos >= r.lo && pos < r.hi {
			return true
		}
	}
	return false
}

func (sc *allocScan) typeOf(e ast.Expr) types.Type {
	if tv, ok := sc.info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := objectIn(sc.info, id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// markAllowedLits records which closure literals never outlive the
// frame. A literal handed to a callee whose summary does not retain
// that parameter (the par executors are curated non-retainers) is
// stack-allocatable; retained literals, and literals bound to variables,
// escape.
func (sc *allocScan) markAllowedLits(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				sc.allowed[lit] = true // runs inside the frame
			}
		case *ast.GoStmt:
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				sc.allowed[lit] = true // the go statement itself is the report
			}
		case *ast.CallExpr:
			if lit, ok := ast.Unparen(n.Fun).(*ast.FuncLit); ok {
				sc.allowed[lit] = true // immediately invoked
			}
			callee := calleeIn(sc.info, n)
			var sum *FuncSummary
			if callee != nil {
				sum = sc.prog.Summary(callee)
			}
			for i, arg := range n.Args {
				lit, ok := ast.Unparen(arg).(*ast.FuncLit)
				if !ok {
					continue
				}
				if callee == nil {
					continue // through a function value: may retain
				}
				if sum != nil && sum.ArgRetained(i) {
					continue // provably escapes
				}
				// Non-retaining in-program callee, curated executor, or an
				// unknown callee (which the call check flags on its own).
				sc.allowed[lit] = true
			}
		}
		return true
	})
}

// visit classifies one node; returns whether to descend into it.
func (sc *allocScan) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.GoStmt:
		return sc.report(n.Pos(), "go statement allocates a goroutine; hot paths fan out through internal/par") && false
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
				sc.handled[lit] = true
				return sc.report(n.Pos(), "address-taken composite literal allocates")
			}
		}
	case *ast.CompositeLit:
		if sc.handled[n] {
			return true
		}
		if t := sc.typeOf(n); t != nil {
			switch t.Underlying().(type) {
			case *types.Slice, *types.Map:
				return sc.report(n.Pos(), "composite literal allocates backing storage")
			}
		}
	case *ast.FuncLit:
		if !sc.allowed[n] {
			return sc.report(n.Pos(), "function literal escapes the frame (closure capture allocates)") && false
		}
	case *ast.BinaryExpr:
		if n.Op == token.ADD {
			if t := sc.typeOf(n); t != nil {
				if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					return sc.report(n.Pos(), "string concatenation allocates")
				}
			}
		}
	case *ast.AssignStmt:
		return sc.visitAssign(n)
	case *ast.ReturnStmt:
		sc.checkReturnBoxing(n)
	case *ast.CallExpr:
		return sc.visitCall(n)
	}
	return true
}

func (sc *allocScan) visitAssign(a *ast.AssignStmt) bool {
	// Field-rooted self-append `x.f = append(x.f, …)` (optionally with an
	// inline [:0] reset) is the arena-recycle idiom: amortized growth of
	// owned scratch, exempt. A plain-local self-append still flags — that
	// is exactly the seeded-violation shape the gate must catch.
	if len(a.Lhs) == 1 && len(a.Rhs) == 1 {
		if call, ok := ast.Unparen(a.Rhs[0]).(*ast.CallExpr); ok &&
			isBuiltinIn(sc.info, call, "append") && len(call.Args) > 0 {
			lhs := exprString(a.Lhs[0])
			dst := exprString(sliceBase(call.Args[0]))
			if lhs != "" && lhs == dst && containsDot(lhs) {
				sc.handled[call] = true
			}
		}
	}
	for i, lhs := range a.Lhs {
		if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			if t := sc.typeOf(ix.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					if !sc.report(lhs.Pos(), "map assignment allocates buckets") {
						return false
					}
					continue
				}
			}
		}
		// Interface boxing through assignment: a concrete non-pointer value
		// stored into an interface-typed location heap-allocates its box.
		var rhs ast.Expr
		if len(a.Rhs) == len(a.Lhs) {
			rhs = a.Rhs[i]
		}
		if rhs == nil {
			continue
		}
		if lt, rt := sc.typeOf(lhs), sc.typeOf(rhs); boxes(lt, rt) {
			if !sc.report(rhs.Pos(), "interface boxing: %s stored into %s allocates", rt, lt) {
				return false
			}
		}
	}
	return true
}

func (sc *allocScan) checkReturnBoxing(ret *ast.ReturnStmt) {
	sig := sc.fi.Func.Type().(*types.Signature)
	res := sig.Results()
	if res == nil || len(ret.Results) != res.Len() {
		return
	}
	for i, r := range ret.Results {
		if sc.inExempt(r.Pos()) {
			continue
		}
		if declT := res.At(i).Type(); boxes(declT, sc.typeOf(r)) {
			if !sc.report(r.Pos(), "interface boxing: returning %s as %s allocates", sc.typeOf(r), declT) {
				return
			}
		}
	}
}

func (sc *allocScan) visitCall(call *ast.CallExpr) bool {
	info := sc.info
	if isConversion(info, call) && len(call.Args) == 1 {
		from, to := sc.typeOf(call.Args[0]), sc.typeOf(call)
		switch {
		case stringSliceConv(from, to):
			return sc.report(call.Pos(), "string/byte-slice conversion copies and allocates")
		case boxes(to, from):
			return sc.report(call.Pos(), "interface boxing: converting %s to %s allocates", from, to)
		}
		return true
	}
	switch {
	case isBuiltinIn(info, call, "make"):
		return sc.report(call.Pos(), "make allocates")
	case isBuiltinIn(info, call, "new"):
		return sc.report(call.Pos(), "new allocates")
	case isBuiltinIn(info, call, "append"):
		if sc.handled[call] {
			return true
		}
		return sc.report(call.Pos(), "growing append may reallocate the backing array")
	case isBuiltinIn(info, call, "panic"):
		return false // crash path: its argument construction is not hot-path work
	}
	callee := calleeIn(info, call)
	if callee == nil {
		// Builtins handled above; calls through function values are
		// assumed inert like the aliasing dimensions' unknown callees —
		// the closures threaded through hot paths (opt.BatchEvaluator)
		// are themselves annotated or summarized at their definitions.
		return true
	}
	sc.checkCallBoxing(call, callee)
	if desc, alloc := calleeAllocSite(sc.prog, callee); alloc {
		return sc.report(call.Pos(), "calls %s, %s", callee.Name(), desc)
	}
	return true
}

// checkCallBoxing flags concrete non-pointer arguments passed into
// interface-typed parameters of a resolved callee.
func (sc *allocScan) checkCallBoxing(call *ast.CallExpr, callee *types.Func) {
	sig, ok := callee.Type().(*types.Signature)
	if !ok || sig.Params() == nil {
		return
	}
	np := sig.Params().Len()
	if np == 0 {
		return
	}
	for i, arg := range call.Args {
		pi := i
		if pi >= np {
			if !sig.Variadic() {
				break
			}
			pi = np - 1
		}
		pt := sig.Params().At(pi).Type()
		if sig.Variadic() && pi == np-1 {
			if s, ok := pt.(*types.Slice); ok {
				pt = s.Elem()
			}
		}
		if boxes(pt, sc.typeOf(arg)) {
			if !sc.report(arg.Pos(), "interface boxing: passing %s as %s allocates", sc.typeOf(arg), pt) {
				return
			}
		}
	}
}

// calleeAllocSite reports whether calling f may allocate, with a
// description. In-program callees answer through their summaries;
// external callees are assumed to allocate unless allowlisted — the
// inverse of the aliasing dimensions' inert stance.
func calleeAllocSite(prog *Program, f *types.Func) (string, bool) {
	if o := f.Origin(); o != nil {
		f = o
	}
	name := qualifiedName(f)
	if allocFreeFuncs[name] {
		return "", false
	}
	if sum := prog.Summary(f); sum != nil {
		if sum.allocSite != "" {
			return fmt.Sprintf("which is not allocation-free (%s)", sum.allocSite), true
		}
		return "", false
	}
	if prog.Info(f) != nil {
		return "", false // curated-inert in-program callee (allocFreeFuncs/inertFuncs)
	}
	pkg := f.Pkg()
	if pkg == nil || allocFreePkgs[pkg.Path()] {
		return "", false
	}
	// An in-module callee with no summary means its package was not
	// loaded into this program (vet's one-package-per-invocation mode,
	// or a narrowed pattern). Degrade optimistically, matching the
	// aliasing dimensions' inert stance — the full-program CI run is the
	// gate that sees every qtenon summary. External packages keep the
	// pessimistic default: they never get summaries, so an unknown call
	// there is a genuine proof hole.
	if strings.HasPrefix(pkg.Path(), "qtenon") {
		return "", false
	}
	return fmt.Sprintf("which has no alloc-free summary (external package %s)", pkg.Path()), true
}

// boxes reports whether storing a value of concrete type rt into a
// location of declared type lt forces an interface box: lt is an
// interface, rt is a concrete non-pointer type. Pointers (and nil) ride
// in the interface word without allocating.
func boxes(lt, rt types.Type) bool {
	if lt == nil || rt == nil {
		return false
	}
	if _, ok := lt.Underlying().(*types.Interface); !ok {
		return false
	}
	switch rt.Underlying().(type) {
	case *types.Interface, *types.Pointer:
		return false
	case *types.Basic:
		if rt.Underlying().(*types.Basic).Kind() == types.UntypedNil {
			return false
		}
	}
	return true
}

// stringSliceConv reports whether a conversion crosses the
// string ↔ []byte/[]rune boundary, which copies the contents.
func stringSliceConv(from, to types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isSlice := func(t types.Type) bool {
		_, ok := t.Underlying().(*types.Slice)
		return ok
	}
	if from == nil || to == nil {
		return false
	}
	return (isStr(from) && isSlice(to)) || (isSlice(from) && isStr(to))
}

func containsDot(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == '.' {
			return true
		}
	}
	return false
}

// coldRanges computes the source ranges the allocation scan skips: the
// amortized-growth and cold-start shapes the arena idiom is built from.
//
//   - an if (or else) body whose condition tests nil, len, cap, or a
//     boolean constant (build-gated debug blocks like san.Enabled);
//   - everything after a cap-guarded early return — the growFloat64
//     shape `if tot <= cap(dst) { return dst[:tot] }; make(…)`;
//   - panic arguments (crash paths);
//   - return operands in declared error-typed result positions (the
//     failing return constructs its error off the hot path).
func coldRanges(fi *FuncInfo) []posRange {
	info := fi.Pkg.Info
	body := fi.Decl.Body
	var out []posRange
	add := func(n ast.Node) {
		if n != nil {
			out = append(out, posRange{n.Pos(), n.End()})
		}
	}
	sig := fi.Func.Type().(*types.Signature)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			guard, capGuard := guardCond(info, n.Cond)
			if !guard {
				return true
			}
			add(n.Body)
			if n.Else != nil {
				add(n.Else)
			}
			if capGuard && endsInReturn(n.Body) {
				out = append(out, posRange{n.End(), body.End()})
			}
		case *ast.CallExpr:
			if isBuiltinIn(info, n, "panic") {
				add(n)
			}
		case *ast.ReturnStmt:
			res := sig.Results()
			if res == nil || len(n.Results) != res.Len() {
				return true
			}
			for i, r := range n.Results {
				if isErrorType(res.At(i).Type()) {
					add(r)
				}
			}
		}
		return true
	})
	return out
}

// guardCond reports whether cond is a cold-path guard (mentions nil, a
// len/cap builtin call, or a boolean constant), and separately whether
// it mentions cap — the only guard strong enough to exempt the code
// after an early return.
func guardCond(info *types.Info, cond ast.Expr) (guard, capGuard bool) {
	if cond == nil {
		return false, false
	}
	ast.Inspect(cond, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if n.Name == "nil" {
				guard = true
			}
			if c, ok := objectIn(info, n).(*types.Const); ok && isBoolType(c.Type()) {
				guard = true // build-gated block: if san.Enabled { … }
			}
		case *ast.CallExpr:
			if isBuiltinIn(info, n, "cap") {
				guard, capGuard = true, true
			}
			if isBuiltinIn(info, n, "len") {
				guard = true
			}
		}
		return true
	})
	return guard, capGuard
}

func endsInReturn(b *ast.BlockStmt) bool {
	if b == nil || len(b.List) == 0 {
		return false
	}
	_, ok := b.List[len(b.List)-1].(*ast.ReturnStmt)
	return ok
}

func isBoolType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsBoolean != 0
}

func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// ---- write-target / seam effect scanning ----

// scanEffects folds global-write and seam-call facts into sum.
func scanEffects(p *Program, fi *FuncInfo, sum *FuncSummary, changed *bool) {
	info := fi.Pkg.Info
	fset := fi.Pkg.Fset
	setGlobal := func(pos token.Pos, format string, args ...any) {
		if sum.globalSite == "" {
			sum.globalSite = fmt.Sprintf("%s: %s", shortPos(fset, pos), fmt.Sprintf(format, args...))
			*changed = true
		}
	}
	setSeam := func(pos token.Pos, format string, args ...any) {
		if sum.seamSite == "" {
			sum.seamSite = fmt.Sprintf("%s: %s", shortPos(fset, pos), fmt.Sprintf(format, args...))
			*changed = true
		}
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if sum.globalSite != "" && sum.seamSite != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if v := pkgLevelRoot(info, lhs); v != nil {
					setGlobal(lhs.Pos(), "stores to package-level %q", v.Name())
				}
			}
		case *ast.IncDecStmt:
			if v := pkgLevelRoot(info, n.X); v != nil {
				setGlobal(n.X.Pos(), "updates package-level %q", v.Name())
			}
		case *ast.CallExpr:
			if (isBuiltinIn(info, n, "copy") || isBuiltinIn(info, n, "append") || isBuiltinIn(info, n, "delete")) && len(n.Args) > 0 {
				if v := pkgLevelRoot(info, n.Args[0]); v != nil {
					setGlobal(n.Pos(), "writes package-level %q", v.Name())
				}
				return true
			}
			callee := calleeIn(info, n)
			if callee == nil {
				return true
			}
			if desc := seamCallDesc(callee); desc != "" {
				setSeam(n.Pos(), "calls %s", desc)
			}
			csum := p.Summary(callee)
			if csum == nil {
				return true
			}
			if csum.globalSite != "" {
				setGlobal(n.Pos(), "calls %s, which writes package-level state (%s)", callee.Name(), csum.globalSite)
			}
			if csum.seamSite != "" {
				setSeam(n.Pos(), "calls %s, which reaches a seam (%s)", callee.Name(), csum.seamSite)
			}
			if csum.RecvMutated() {
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
					if v := pkgLevelRoot(info, sel.X); v != nil {
						setGlobal(n.Pos(), "calls %s, mutating package-level %q", callee.Name(), v.Name())
					}
				}
			}
			for i, arg := range n.Args {
				if csum.ArgMutated(i) {
					if v := pkgLevelRoot(info, arg); v != nil {
						setGlobal(arg.Pos(), "passes package-level %q to %s, which writes through it", v.Name(), callee.Name())
					}
				}
			}
		}
		return true
	})
}

// seamCallDesc describes f when it belongs to a global-effect seam:
// internal/rng, internal/wallclock, internal/metrics (any function or
// method), time's clock reads, or a math/rand package-level stream.
func seamCallDesc(f *types.Func) string {
	pkg := f.Pkg()
	if pkg == nil {
		return ""
	}
	path := pkg.Path()
	if why, ok := seamPkgs[path]; ok {
		return fmt.Sprintf("%s.%s (%s)", pkg.Name(), f.Name(), why)
	}
	isMethod := f.Type().(*types.Signature).Recv() != nil
	switch path {
	case "time":
		if !isMethod && (f.Name() == "Now" || f.Name() == "Since" || f.Name() == "Until") {
			return "time." + f.Name() + " (wall clock)"
		}
	case "math/rand", "math/rand/v2":
		if !isMethod {
			return path + "." + f.Name() + " (global RNG stream)"
		}
	}
	return ""
}

// pkgLevelRoot walks a store target to its base object and returns that
// object when it is a package-level variable (directly, or through a
// pkg.Var qualified reference); nil otherwise.
func pkgLevelRoot(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if x.Name == "_" {
				return nil
			}
			if v, ok := objectIn(info, x).(*types.Var); ok && isPkgLevelVar(v) {
				return v
			}
			return nil
		case *ast.SelectorExpr:
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
				if _, isPkg := objectIn(info, id).(*types.PkgName); isPkg {
					if v, ok := objectIn(info, x.Sel).(*types.Var); ok && isPkgLevelVar(v) {
						return v
					}
					return nil
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
			return nil
		}
	}
}

func isPkgLevelVar(v *types.Var) bool {
	return v != nil && !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}
