package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// scratchPackages are the packages whose Append*/*Reuse APIs hand out
// storage aliased with caller- or receiver-owned scratch.
var scratchPackages = map[string]bool{
	"qtenon/internal/qsim":     true,
	"qtenon/internal/compiler": true,
	"qtenon/internal/circuit":  true,
	"qtenon/internal/tilelink": true,
}

// scratchDstArg maps scratch producers to the index of their recycled
// destination argument (receiver excluded). Producers not listed use
// argument 0 — the Append*(dst, …) / *Reuse(st, …) convention.
var scratchDstArg = map[string]int{
	"TransferReuse": 6, // (bus, rbq, addr, beats, write, data, dataBuf)
}

// ScratchArena enforces the scratch-buffer ownership contract
// (DESIGN.md §9.2): a slice produced by one of the Append*/*Reuse/
// BindInto scratch APIs with a recycled (non-nil) destination aliases
// the destination's backing array and is only valid until the next call
// that recycles it. Such a slice may be consumed locally, passed down a
// call, or stored back over the destination it recycles — but it must
// not escape the caller's frame: returning it, storing it into a
// different field or a map, or capturing it in a closure re-creates the
// aliasing-bug class the zero-allocation PR introduced.
//
// Calls whose destination is nil, a make(...), or a literal allocate
// fresh storage and are exempt, as are the bodies of scratch APIs
// themselves (functions named Append*/*Reuse/BindInto are links in a
// recycling chain and hand their dst contract to their caller).
var ScratchArena = &Analyzer{
	Name:   "scratcharena",
	Design: "§8, §9",
	Doc:    "flag scratch-API result slices that escape the calling frame",
	Run:    runScratchArena,
}

// isScratchAPIName reports whether a function is itself a scratch
// producer by the repo's naming convention.
func isScratchAPIName(name string) bool {
	return strings.HasPrefix(name, "Append") || strings.HasSuffix(name, "Reuse") || name == "BindInto"
}

// scratchProducer resolves call to a scratch API and returns its dst
// argument index.
func scratchProducer(pass *Pass, call *ast.CallExpr) (fn *types.Func, dstIdx int, ok bool) {
	f := pass.CalleeFunc(call)
	if f == nil || f.Pkg() == nil || !scratchPackages[f.Pkg().Path()] || !isScratchAPIName(f.Name()) {
		return nil, 0, false
	}
	idx := 0
	if i, found := scratchDstArg[f.Name()]; found {
		idx = i
	}
	if idx >= len(call.Args) {
		return nil, 0, false
	}
	return f, idx, true
}

func runScratchArena(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkScratchInFunc(pass, fn.Name.Name, fn.Body)
				}
				return false
			case *ast.FuncLit:
				checkScratchInFunc(pass, "", fn.Body)
				return false
			}
			return true
		})
	}
	return nil
}

// checkScratchInFunc analyzes one function body for escaping scratch.
// funcName is "" for literals. Nested function literals are analyzed by
// their own invocation of this walk (the Inspect above stops at function
// boundaries), except that capturing an outer tracked value is checked
// here.
func checkScratchInFunc(pass *Pass, funcName string, body *ast.BlockStmt) {
	// Unexported append*/…Reuse helpers are links in the same recycling
	// chains as the exported APIs.
	inScratchAPI := funcName != "" && (isScratchAPIName(funcName) || strings.HasPrefix(funcName, "append"))

	// tracked maps a local variable object to the rendered base
	// expression of the scratch dst it aliases.
	tracked := map[types.Object]string{}

	var walkStmts func(stmts []ast.Stmt)
	var walkStmt func(s ast.Stmt)

	// Statements are revisited when block recursion and closure scanning
	// overlap; dedupe so each escape reports once.
	seen := map[string]bool{}
	reportEscape := func(pos token.Pos, how string) {
		key := pass.Fset.Position(pos).String() + how
		if seen[key] {
			return
		}
		seen[key] = true
		pass.Reportf(pos, "scratch-backed slice %s: it aliases recycled storage and is only valid until the next reuse; copy it, or recycle it back over its own destination", how)
	}

	// handleCallValue inspects one producer call and the statement that
	// consumes its value.
	handleProducer := func(call *ast.CallExpr, parent ast.Stmt) {
		fn, dstIdx, ok := scratchProducer(pass, call)
		if !ok {
			return
		}
		dst := call.Args[dstIdx]
		if isNilOrFresh(pass, dst) {
			return
		}
		dstBase := exprString(sliceBase(dst))
		switch p := parent.(type) {
		case *ast.ReturnStmt:
			if !inScratchAPI {
				reportEscape(call.Pos(), "returned from "+describeFunc(funcName)+" (produced by "+fn.Name()+")")
			}
		case *ast.AssignStmt:
			// Find the LHS receiving the call's first value.
			if len(p.Rhs) == 1 && ast.Unparen(p.Rhs[0]) == call && len(p.Lhs) > 0 {
				switch l := ast.Unparen(p.Lhs[0]).(type) {
				case *ast.Ident:
					if l.Name == "_" {
						return
					}
					if obj := pass.ObjectOf(l); obj != nil {
						tracked[obj] = dstBase
					}
				case *ast.SelectorExpr, *ast.IndexExpr:
					target := exprString(sliceBase(p.Lhs[0]))
					if target == "" || target != dstBase {
						reportEscape(call.Pos(), "stored into "+renderTarget(p.Lhs[0])+" which is not its recycled destination "+quoted(dstBase))
					}
				}
			}
		}
	}

	walkStmt = func(s ast.Stmt) {
		switch s := s.(type) {
		case *ast.AssignStmt:
			// First settle what each LHS receives: overwriting a tracked
			// variable ends its tracking; receiving a tracked value hands
			// the tracking off; storing a tracked value into anything but
			// its own recycled destination is an escape.
			for i, lhs := range s.Lhs {
				var rhs ast.Expr
				if len(s.Rhs) == len(s.Lhs) {
					rhs = s.Rhs[i]
				} else if len(s.Rhs) == 1 {
					rhs = s.Rhs[0]
				}
				var base string
				var robj types.Object
				if rhs != nil {
					base, robj = trackedRoot(pass, tracked, rhs)
				}
				aliasing := robj != nil && isAliasType(pass, rhs)
				switch l := ast.Unparen(lhs).(type) {
				case *ast.Ident:
					if l.Name == "_" {
						continue
					}
					if obj := pass.ObjectOf(l); obj != nil {
						delete(tracked, obj)
						if aliasing {
							tracked[obj] = base
						}
					}
				case *ast.SelectorExpr, *ast.IndexExpr:
					if aliasing {
						if target := exprString(sliceBase(lhs)); target != base {
							reportEscape(rhs.Pos(), "stored into "+renderTarget(lhs)+" which is not its recycled destination "+quoted(base))
						}
					}
					_ = l
				}
			}
			// Then register any scratch producers on the RHS (this may
			// re-establish tracking for an LHS just cleared above).
			for _, rhs := range s.Rhs {
				if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
					handleProducer(call, s)
				}
			}
		case *ast.ReturnStmt:
			for _, res := range s.Results {
				if call, ok := ast.Unparen(res).(*ast.CallExpr); ok {
					handleProducer(call, s)
				}
				if inScratchAPI {
					continue
				}
				if base, obj := trackedRoot(pass, tracked, res); obj != nil && isAliasType(pass, res) {
					reportEscape(res.Pos(), "returned from "+describeFunc(funcName)+" (aliases "+quoted(base)+")")
				}
			}
		case *ast.GoStmt:
			checkClosureCapture(pass, tracked, s.Call, reportEscape)
		case *ast.DeferStmt:
			checkClosureCapture(pass, tracked, s.Call, reportEscape)
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				handleProducer(call, s)
				checkClosureCapture(pass, tracked, call, reportEscape)
			}
		case *ast.SendStmt:
			if _, obj := trackedRoot(pass, tracked, s.Value); obj != nil {
				reportEscape(s.Value.Pos(), "sent on a channel")
			}
		}
	}

	// checkLits flags function literals anywhere under n that capture a
	// currently tracked scratch value. Escapes via closures scheduled or
	// stored later than this statement are caught because tracking is
	// checked in source order as the walk proceeds.
	checkLits := func(n ast.Node) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(m ast.Node) bool {
			lit, ok := m.(*ast.FuncLit)
			if !ok {
				return true
			}
			for _, obj := range sortedTracked(tracked) {
				if capturesObject(pass, lit, obj) {
					reportEscape(lit.Pos(), "captured by a function literal (aliases "+quoted(tracked[obj])+")")
				}
			}
			return false
		})
	}

	walkStmts = func(stmts []ast.Stmt) {
		for _, s := range stmts {
			walkStmt(s)
			checkLits(s)
			switch s := s.(type) {
			case *ast.BlockStmt:
				walkStmts(s.List)
			case *ast.IfStmt:
				walkStmts(s.Body.List)
				if s.Else != nil {
					walkStmts([]ast.Stmt{s.Else})
				}
			case *ast.ForStmt:
				walkStmts(s.Body.List)
			case *ast.RangeStmt:
				walkStmts(s.Body.List)
			case *ast.SwitchStmt:
				for _, c := range s.Body.List {
					walkStmts(c.(*ast.CaseClause).Body)
				}
			case *ast.TypeSwitchStmt:
				for _, c := range s.Body.List {
					walkStmts(c.(*ast.CaseClause).Body)
				}
			case *ast.SelectStmt:
				for _, c := range s.Body.List {
					walkStmts(c.(*ast.CommClause).Body)
				}
			case *ast.LabeledStmt:
				walkStmts([]ast.Stmt{s.Stmt})
			}
		}
	}
	walkStmts(body.List)
}

// trackedRoot reports whether e is a tracked variable or a selector
// rooted at one, returning the scratch base it aliases.
func trackedRoot(pass *Pass, tracked map[types.Object]string, e ast.Expr) (string, types.Object) {
	if e == nil {
		return "", nil
	}
	cur := ast.Unparen(sliceBase(e))
	for {
		switch x := cur.(type) {
		case *ast.Ident:
			if obj := pass.ObjectOf(x); obj != nil {
				if base, ok := tracked[obj]; ok {
					return base, obj
				}
			}
			return "", nil
		case *ast.SelectorExpr:
			cur = ast.Unparen(sliceBase(x.X))
		case *ast.IndexExpr:
			cur = ast.Unparen(sliceBase(x.X))
		default:
			return "", nil
		}
	}
}

// isAliasType reports whether e's type can alias backing storage worth
// tracking: slices, pointers, maps, and structs containing them. Scalars
// (res.Cycles int64) extracted from a tracked struct are not escapes.
func isAliasType(pass *Pass, e ast.Expr) bool {
	t := pass.TypeOf(e)
	if t == nil {
		return true // unknown: be conservative
	}
	return typeAliases(t, 0)
}

func typeAliases(t types.Type, depth int) bool {
	if depth > 4 {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Pointer, *types.Map, *types.Chan, *types.Interface, *types.Signature:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if typeAliases(u.Field(i).Type(), depth+1) {
				return true
			}
		}
		return false
	case *types.Array:
		return typeAliases(u.Elem(), depth+1)
	default:
		return false
	}
}

// checkClosureCapture flags function-literal arguments that capture
// tracked scratch values.
func checkClosureCapture(pass *Pass, tracked map[types.Object]string, call *ast.CallExpr, report func(token.Pos, string)) {
	for _, arg := range call.Args {
		lit, ok := ast.Unparen(arg).(*ast.FuncLit)
		if !ok {
			continue
		}
		for _, obj := range sortedTracked(tracked) {
			if capturesObject(pass, lit, obj) {
				report(lit.Pos(), "captured by a function literal (aliases "+quoted(tracked[obj])+")")
			}
		}
	}
}

// sortedTracked returns the tracked objects in declaration order so
// diagnostics are emitted deterministically.
func sortedTracked(tracked map[types.Object]string) []types.Object {
	objs := make([]types.Object, 0, len(tracked))
	for obj := range tracked {
		objs = append(objs, obj)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].Pos() < objs[j].Pos() })
	return objs
}

// capturesObject reports whether the function literal references obj
// from its enclosing scope.
func capturesObject(pass *Pass, lit *ast.FuncLit, obj types.Object) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

func describeFunc(name string) string {
	if name == "" {
		return "a function literal"
	}
	return name
}

func renderTarget(e ast.Expr) string {
	if s := exprString(sliceBase(e)); s != "" {
		return quoted(s)
	}
	return "another location"
}

func quoted(s string) string { return "\"" + s + "\"" }
