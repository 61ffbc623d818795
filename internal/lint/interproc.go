package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is the interprocedural layer of qtenon-lint (DESIGN.md §10):
// a module-local call graph over go/types plus one conservative summary
// per declared function, computed as a monotone fixpoint so mutually
// recursive functions (call-graph SCCs) converge. The parsafety,
// unitflow and deepscratch analyzers consume the summaries through
// Pass.Prog; the intra-procedural analyzers ignore it.
//
// The summaries answer three questions about a call the caller's frame
// cannot see into:
//
//   - retention: may the callee store this argument (or memory reachable
//     from it) somewhere that outlives the call — a global, a field of
//     its receiver or another parameter, a map, a channel, a goroutine,
//     an escaping closure?
//   - mutation: may the callee write through this argument (slice
//     element, pointed-to field, map entry)?
//   - aliasing: may a result of the callee alias this argument?
//
// plus the unit-domain question of domains.go (is this int parameter a
// cycle count, a frequency, or raw picoseconds?).
//
// Precision stance: the analysis is deliberately unsound in one
// direction — callees whose source is not part of the program (stdlib,
// export-data-only imports) are assumed inert. Soundness there would
// flood every fmt-formatting call with false positives; the analyzers
// trade recall for a clean, trustworthy signal. The one place an
// optimistic assumption would be wrong inside this module — the
// internal/par executors, which do briefly store their closure argument
// but join before returning — is captured by the curated inertFuncs
// list below.

// A Program is the interprocedural view over every package loaded in
// one lint run.
type Program struct {
	Pkgs      []*Package
	infos     map[*types.Func]*FuncInfo
	order     []*FuncInfo // deterministic: sorted by (package path, position)
	summaries map[*types.Func]*FuncSummary
	// byName maps types.Func.FullName() to the source-checked (canonical)
	// object. Module packages are loaded with export data present, so a
	// callee referenced from another package is a *different* types.Func
	// than the one registered when its defining package was checked from
	// source; FullName (which renders receiver types with full package
	// paths) bridges the two identities so summaries resolve
	// cross-package.
	byName map[string]*types.Func
}

// FuncInfo ties a declared function to its syntax and package.
type FuncInfo struct {
	Func *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
}

// bitset indexes receiver-first parameters; parameter 63 and beyond
// share the last bit (no qtenon function has 63 parameters).
type bitset uint64

func paramBit(i int) bitset {
	if i > 63 {
		i = 63
	}
	return 1 << uint(i)
}

// FuncSummary is one function's interprocedural contract. Parameter
// indices are receiver-first internally; the Arg* accessors take call
// argument positions (receiver excluded) and handle variadics.
type FuncSummary struct {
	Func     *types.Func
	hasRecv  bool
	nparams  int // including the receiver slot
	variadic bool

	retains bitset
	mutates bitset
	flows   bitset // parameter may alias a result

	paramDomain  []Domain // receiver-first, like the bitsets
	resultDomain Domain   // domain of the first result, when int-typed

	// v3 dimensions (DESIGN.md §14). Each is a set-once fact holding a
	// rendered "file.go:line: what" description of the first witness, ""
	// while unproven; monotone like the bitsets, so the fixpoint
	// propagates them transitively through the call graph.
	allocSite  string // first heap-allocation site (or call to a non-alloc-free callee)
	globalSite string // first write landing in package-level state
	seamSite   string // first call into a global-effect seam (rng/wallclock/metrics, time, math/rand)
}

// AllocFree reports whether the function is proven free of steady-state
// heap allocation, transitively through its in-program callees. A nil
// summary is NOT alloc-free: for allocation the optimistic-inert stance
// inverts — an unknown callee may allocate — so hotpath consumers must
// go through calleeAllocSite, which consults the curated allowlists.
func (s *FuncSummary) AllocFree() bool { return s != nil && s.allocSite == "" }

// AllocSite describes the first allocation witness ("" when alloc-free).
func (s *FuncSummary) AllocSite() string { return s.allocSite }

// WritesGlobal reports whether the function (transitively) stores to
// package-level state — the write-target dimension's "escapes every
// partition" bucket consumed by shardsafety and routepurity.
func (s *FuncSummary) WritesGlobal() bool { return s != nil && s.globalSite != "" }

// GlobalWriteSite describes the first package-level write witness.
func (s *FuncSummary) GlobalWriteSite() string { return s.globalSite }

// SeamSite describes the function's first (transitive) call into a
// global-effect seam — internal/rng, internal/wallclock,
// internal/metrics, time.Now, or a math/rand package-level stream —
// "" when it touches none. Consumed by routepurity.
func (s *FuncSummary) SeamSite() string {
	if s == nil {
		return ""
	}
	return s.seamSite
}

// argIndex maps a call argument position to the summary's receiver-first
// parameter index, clamping variadic overflow onto the last parameter.
func (s *FuncSummary) argIndex(i int) int {
	if s.hasRecv {
		i++
	}
	if i >= s.nparams {
		if s.variadic {
			i = s.nparams - 1
		} else {
			return -1
		}
	}
	return i
}

// ArgRetained reports whether the i'th call argument (0-based, receiver
// not counted) may be stored beyond the callee's frame.
func (s *FuncSummary) ArgRetained(i int) bool {
	if s == nil {
		return false
	}
	i = s.argIndex(i)
	return i >= 0 && s.retains&paramBit(i) != 0
}

// ArgMutated reports whether the callee may write through the i'th call
// argument.
func (s *FuncSummary) ArgMutated(i int) bool {
	if s == nil {
		return false
	}
	i = s.argIndex(i)
	return i >= 0 && s.mutates&paramBit(i) != 0
}

// ArgFlowsToResult reports whether a result of the callee may alias the
// i'th call argument.
func (s *FuncSummary) ArgFlowsToResult(i int) bool {
	if s == nil {
		return false
	}
	i = s.argIndex(i)
	return i >= 0 && s.flows&paramBit(i) != 0
}

// RecvRetained reports whether the callee may store its receiver (or
// memory reachable from it) beyond the call.
func (s *FuncSummary) RecvRetained() bool {
	return s != nil && s.hasRecv && s.retains&paramBit(0) != 0
}

// RecvMutated reports whether the callee may write through its receiver.
func (s *FuncSummary) RecvMutated() bool {
	return s != nil && s.hasRecv && s.mutates&paramBit(0) != 0
}

// ArgDomain reports the unit domain the callee expects for the i'th
// call argument; DomainUnknown when the evidence is absent or
// conflicting.
func (s *FuncSummary) ArgDomain(i int) Domain {
	if s == nil {
		return DomainUnknown
	}
	i = s.argIndex(i)
	if i < 0 || i >= len(s.paramDomain) {
		return DomainUnknown
	}
	return s.paramDomain[i].concrete()
}

// ResultDomain reports the unit domain of the callee's first result.
func (s *FuncSummary) ResultDomain() Domain {
	if s == nil {
		return DomainUnknown
	}
	return s.resultDomain.concrete()
}

// inertFuncs is the curated override list: functions whose
// synchronization discipline the summary analysis cannot see. The
// internal/par executors do store their closure argument (into a job
// sent on the worker channel) but join on every chunk before returning,
// so nothing escapes the caller's frame; without the override every
// closure-capturing par.For call would look like a retention.
var inertFuncs = map[string]bool{
	"qtenon/internal/par.For":        true,
	"qtenon/internal/par.Do":         true,
	"qtenon/internal/par.SumFloat64": true,
	"qtenon/internal/par.SumComplex": true,
}

func qualifiedName(f *types.Func) string {
	if f.Pkg() == nil {
		return f.Name()
	}
	return f.Pkg().Path() + "." + f.Name()
}

// maxSummaryRounds bounds the global fixpoint. Summaries only grow, so
// the loop terminates on its own; the cap is a backstop against a bug,
// not a tuning knob.
const maxSummaryRounds = 64

// NewProgram builds the call graph and computes every summary to a
// fixpoint. Functions are processed callee-first where the acyclic part
// of the call graph allows; cycles converge through the outer rounds.
func NewProgram(pkgs []*Package) *Program {
	p := &Program{
		Pkgs:      pkgs,
		infos:     map[*types.Func]*FuncInfo{},
		summaries: map[*types.Func]*FuncSummary{},
		byName:    map[string]*types.Func{},
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{Func: obj, Decl: fd, Pkg: pkg}
				p.infos[obj] = fi
				p.byName[obj.FullName()] = obj
				p.order = append(p.order, fi)
			}
		}
	}
	sort.SliceStable(p.order, func(i, j int) bool {
		a, b := p.order[i], p.order[j]
		if a.Pkg.Path != b.Pkg.Path {
			return a.Pkg.Path < b.Pkg.Path
		}
		return a.Decl.Pos() < b.Decl.Pos()
	})
	for _, fi := range p.order {
		p.summaries[fi.Func] = newSummary(fi.Func)
	}
	ordered := p.bottomUpOrder()
	for round := 0; round < maxSummaryRounds; round++ {
		changed := false
		for _, fi := range ordered {
			if summarize(p, fi) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return p
}

// Summary returns f's summary, or nil when f's source is not part of
// the program (stdlib, export-data-only dependency) or f is on the
// curated inert list. Instantiated generics resolve to their origin.
func (p *Program) Summary(f *types.Func) *FuncSummary {
	if p == nil || f == nil {
		return nil
	}
	if o := f.Origin(); o != nil {
		f = o
	}
	if inertFuncs[qualifiedName(f)] {
		return nil
	}
	return p.summaries[p.canonical(f)]
}

// canonical resolves f — possibly an export-data identity seen from an
// importing package — to the source-checked object the summary maps are
// keyed by.
func (p *Program) canonical(f *types.Func) *types.Func {
	if _, ok := p.infos[f]; ok {
		return f
	}
	if c, ok := p.byName[f.FullName()]; ok {
		return c
	}
	return f
}

// Info returns the declaration info for f, or nil.
func (p *Program) Info(f *types.Func) *FuncInfo {
	if p == nil || f == nil {
		return nil
	}
	if o := f.Origin(); o != nil {
		f = o
	}
	return p.infos[p.canonical(f)]
}

func newSummary(f *types.Func) *FuncSummary {
	sig := f.Type().(*types.Signature)
	s := &FuncSummary{
		Func:     f,
		hasRecv:  sig.Recv() != nil,
		variadic: sig.Variadic(),
	}
	s.nparams = sig.Params().Len()
	if s.hasRecv {
		s.nparams++
	}
	s.paramDomain = make([]Domain, s.nparams)
	return s
}

// bottomUpOrder approximates reverse-topological (callee-first) order:
// a depth-first postorder over the static call graph, deterministic
// because roots and edges are visited in p.order / source order. Cycles
// are handled by the enclosing fixpoint loop, not here.
func (p *Program) bottomUpOrder() []*FuncInfo {
	visited := map[*types.Func]bool{}
	var out []*FuncInfo
	var visit func(fi *FuncInfo)
	visit = func(fi *FuncInfo) {
		if visited[fi.Func] {
			return
		}
		visited[fi.Func] = true
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := calleeIn(fi.Pkg.Info, call); callee != nil {
				if ci := p.Info(callee); ci != nil {
					visit(ci)
				}
			}
			return true
		})
		out = append(out, fi)
	}
	for _, fi := range p.order {
		visit(fi)
	}
	return out
}

// ---- shared type-info helpers (usable outside a Pass) ----

func objectIn(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// calleeIn resolves a call to the *types.Func it statically invokes,
// unwrapping generic instantiation syntax; nil for calls through
// function values, builtins and type conversions.
func calleeIn(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch x := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(x.X) // f[T](…)
	case *ast.IndexListExpr:
		fun = ast.Unparen(x.X) // f[T1, T2](…)
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		if f, ok := objectIn(info, fun).(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := objectIn(info, fun.Sel).(*types.Func); ok {
			return f
		}
	}
	return nil
}

// isConversion reports whether call is a type conversion.
func isConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[ast.Unparen(call.Fun)]
	return ok && tv.IsType()
}

// isBuiltinIn reports whether call invokes the named builtin.
func isBuiltinIn(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := objectIn(info, id).(*types.Builtin)
	return isBuiltin
}

// ---- per-function summarization ----

// summarizer analyzes one function body against the current summaries
// and folds new facts into its (shared, monotone) summary.
type summarizer struct {
	prog *Program
	fi   *FuncInfo
	sum  *FuncSummary

	// paramBits seeds the receiver and each named parameter with its bit.
	paramBits map[types.Object]bitset
	// aliases maps locals (and local aggregates stored through) to the
	// parameter bits their values may alias. Monotone within a pass.
	aliases map[types.Object]bitset

	changed bool
}

// summarize recomputes fi's summary facts; reports whether it grew.
func summarize(p *Program, fi *FuncInfo) bool {
	s := &summarizer{
		prog:      p,
		fi:        fi,
		sum:       p.summaries[fi.Func],
		paramBits: map[types.Object]bitset{},
		aliases:   map[types.Object]bitset{},
	}
	idx := 0
	addParams := func(fields *ast.FieldList) {
		if fields == nil {
			return
		}
		for _, f := range fields.List {
			if len(f.Names) == 0 {
				idx++ // unnamed parameter still occupies a slot
				continue
			}
			for _, name := range f.Names {
				if obj := fi.Pkg.Info.Defs[name]; obj != nil {
					s.paramBits[obj] = paramBit(idx)
				}
				idx++
			}
		}
	}
	addParams(fi.Decl.Recv)
	addParams(fi.Decl.Type.Params)

	// The alias map grows as the scan discovers flows; a few passes let
	// facts propagate backwards through loops.
	grew := false
	for pass := 0; pass < 3; pass++ {
		s.changed = false
		s.scan(fi.Decl.Body)
		grew = grew || s.changed
		if !s.changed {
			break
		}
	}
	if summarizeDomains(p, fi, s.sum) {
		grew = true
	}
	if summarizeV3(p, fi, s.sum) {
		grew = true
	}
	return grew
}

func (s *summarizer) retain(b bitset) {
	if b != 0 && s.sum.retains&b != b {
		s.sum.retains |= b
		s.changed = true
	}
}

func (s *summarizer) mutate(b bitset) {
	if b != 0 && s.sum.mutates&b != b {
		s.sum.mutates |= b
		s.changed = true
	}
}

func (s *summarizer) flow(b bitset) {
	if b != 0 && s.sum.flows&b != b {
		s.sum.flows |= b
		s.changed = true
	}
}

// isLocal reports whether obj is declared inside this function.
func (s *summarizer) isLocal(obj types.Object) bool {
	return obj != nil && obj.Pos() >= s.fi.Decl.Pos() && obj.Pos() <= s.fi.Decl.End()
}

// setOf computes the parameter bits the value of e may alias.
func (s *summarizer) setOf(e ast.Expr) bitset {
	if e == nil {
		return 0
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := objectIn(s.fi.Pkg.Info, x)
		if obj == nil {
			return 0
		}
		return s.paramBits[obj] | s.aliases[obj]
	case *ast.SelectorExpr:
		return s.setOf(x.X)
	case *ast.IndexExpr:
		return s.setOf(x.X)
	case *ast.IndexListExpr:
		return s.setOf(x.X)
	case *ast.SliceExpr:
		return s.setOf(x.X)
	case *ast.StarExpr:
		return s.setOf(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return s.setOf(x.X)
		}
		return 0
	case *ast.CompositeLit:
		var b bitset
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			b |= s.setOf(elt)
		}
		return b
	case *ast.CallExpr:
		return s.callResultSet(x)
	case *ast.TypeAssertExpr:
		return s.setOf(x.X)
	case *ast.FuncLit:
		return s.captureSet(x)
	}
	return 0
}

// callResultSet reports the parameter bits a call's result may alias:
// append flows its first argument plus any alias-capable elements (the
// appended headers reference their backing arrays from the result, so
// `global = append(global, p)` retains p), conversions flow their
// operand, and known callees flow the arguments their summary marks
// ArgFlowsToResult.
func (s *summarizer) callResultSet(call *ast.CallExpr) bitset {
	info := s.fi.Pkg.Info
	if isConversion(info, call) && len(call.Args) == 1 {
		return s.setOf(call.Args[0])
	}
	if isBuiltinIn(info, call, "append") && len(call.Args) > 0 {
		b := s.setOf(call.Args[0])
		for _, arg := range call.Args[1:] {
			b |= s.setOf(arg)
		}
		return b
	}
	callee := calleeIn(info, call)
	if callee == nil {
		return 0
	}
	sum := s.prog.Summary(callee)
	if sum == nil {
		return 0
	}
	var b bitset
	if sum.hasRecv && sum.flows&paramBit(0) != 0 {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			b |= s.setOf(sel.X)
		}
	}
	for i, arg := range call.Args {
		if sum.ArgFlowsToResult(i) {
			b |= s.setOf(arg)
		}
	}
	return b
}

// captureSet reports the parameter bits a function literal captures.
func (s *summarizer) captureSet(lit *ast.FuncLit) bitset {
	info := s.fi.Pkg.Info
	var b bitset
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil || (obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End()) {
			return true
		}
		b |= s.paramBits[obj] | s.aliases[obj]
		return true
	})
	return b
}

// rootOf walks a store target to its base object and the bits of
// everything dereferenced on the way there.
func (s *summarizer) rootOf(e ast.Expr) (types.Object, bitset) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := objectIn(s.fi.Pkg.Info, x)
			if obj == nil {
				return nil, 0
			}
			return obj, s.paramBits[obj] | s.aliases[obj]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil, s.setOf(e)
		}
	}
}

// scan walks the body once, recording retention/mutation/flow facts.
func (s *summarizer) scan(body *ast.BlockStmt) {
	info := s.fi.Pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			s.assign(n)
		case *ast.RangeStmt:
			// for k, v := range p: v's values alias p's elements.
			src := s.setOf(n.X)
			if src != 0 && n.Tok == token.DEFINE {
				for _, e := range []ast.Expr{n.Key, n.Value} {
					id, ok := e.(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					if obj := info.Defs[id]; obj != nil && isAliasCapable(obj.Type()) {
						s.join(obj, src)
					}
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				s.flow(s.setOf(res))
			}
		case *ast.SendStmt:
			s.retain(s.setOf(n.Value))
		case *ast.GoStmt:
			// The goroutine may outlive the frame: the function value's
			// captures and every argument escape.
			s.retain(s.setOf(n.Call.Fun))
			for _, arg := range n.Call.Args {
				s.retain(s.setOf(arg))
			}
			s.call(n.Call)
		case *ast.DeferStmt:
			s.call(n.Call) // runs inside the frame; only the call's own effects
		case *ast.CallExpr:
			s.call(n)
		}
		return true
	})
}

// join adds bits to a local's alias set.
func (s *summarizer) join(obj types.Object, b bitset) {
	if b == 0 || obj == nil {
		return
	}
	if s.aliases[obj]&b != b {
		s.aliases[obj] |= b
		s.changed = true
	}
}

// assign classifies each LHS of an assignment.
func (s *summarizer) assign(a *ast.AssignStmt) {
	for i, lhs := range a.Lhs {
		var rhs ast.Expr
		if len(a.Rhs) == len(a.Lhs) {
			rhs = a.Rhs[i]
		} else if len(a.Rhs) == 1 {
			rhs = a.Rhs[0] // multi-value call: every LHS may alias any flow
		}
		rset := s.setOf(rhs)
		switch l := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			if l.Name == "_" {
				continue
			}
			obj := objectIn(s.fi.Pkg.Info, l)
			if obj == nil || !isAliasCapable(obj.Type()) {
				continue
			}
			if s.paramBits[obj] != 0 {
				// Reassigned parameter variable: its later flows now cover
				// the new value too.
				s.join(obj, rset)
				continue
			}
			if s.isLocal(obj) {
				s.join(obj, rset)
			} else {
				s.retain(rset) // package-level variable
			}
		case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
			root, rootBits := s.rootOf(lhs)
			s.mutate(rootBits)
			if rset == 0 {
				continue
			}
			if root != nil && rootBits == 0 && s.isLocal(root) {
				// Stored into a purely local aggregate: the aggregate now
				// carries the bits; if it escapes later the bits follow.
				s.join(root, rset)
			} else {
				s.retain(rset)
			}
		}
	}
}

// call applies a callee's summary to the arguments at this site.
func (s *summarizer) call(call *ast.CallExpr) {
	info := s.fi.Pkg.Info
	if isConversion(info, call) {
		return
	}
	if isBuiltinIn(info, call, "copy") && len(call.Args) == 2 {
		s.mutate(s.setOf(call.Args[0]))
		return
	}
	if isBuiltinIn(info, call, "append") && len(call.Args) > 0 {
		// Appended elements live in the destination's backing array;
		// appending parameter memory into another parameter's storage is
		// a retention. Where the result escapes is callResultSet's job.
		dst := s.setOf(call.Args[0])
		s.mutate(dst)
		if dst != 0 {
			for _, arg := range call.Args[1:] {
				s.retain(s.setOf(arg))
			}
		}
		return
	}
	callee := calleeIn(info, call)
	if callee == nil {
		return
	}
	sum := s.prog.Summary(callee)
	if sum == nil {
		return // unknown or curated-inert callee: assumed inert
	}
	if sum.hasRecv {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			rb := s.setOf(sel.X)
			if sum.retains&paramBit(0) != 0 {
				s.retain(rb)
			}
			if sum.mutates&paramBit(0) != 0 {
				s.mutate(rb)
			}
		}
	}
	for i, arg := range call.Args {
		ab := s.setOf(arg)
		if ab == 0 {
			continue
		}
		if sum.ArgRetained(i) {
			s.retain(ab)
		}
		if sum.ArgMutated(i) {
			s.mutate(ab)
		}
	}
}

// isAliasCapable reports whether values of t can carry aliases of
// parameter memory (reuses the scratcharena type walk).
func isAliasCapable(t types.Type) bool {
	if t == nil {
		return true
	}
	return typeAliases(t, 0)
}
