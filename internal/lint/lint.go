// Package lint is qtenon-lint: a suite of static analyzers that
// machine-check the repository's determinism, aliasing and
// instrumentation invariants (DESIGN.md §9). The invariants were
// previously enforced only by tests and review; these analyzers encode
// them so every PR is checked mechanically:
//
//   - determinism: no wall-clock reads, no math/rand package-level
//     streams outside internal/rng, no order-sensitive map iteration in
//     simulation/bench/report code.
//   - scratcharena: slices produced by the Append*/*Reuse scratch APIs
//     must not outlive the caller's frame (the aliasing-bug class the
//     zero-allocation PR introduced).
//   - metricsdiscipline: metrics instruments come from registry
//     constructors, never raw struct literals, preserving nil-safety.
//   - floatcompare: no ==/!= on floating-point or complex values outside
//     the approved tolerance helpers.
//   - eventretention: closures scheduled on sim.Engine must not capture
//     loop variables or scratch-backed slices.
//   - parsafety: closures run by the internal/par executors or a go
//     statement write only index-partitioned or closure-local state.
//
// Each analyzer reads one function at a time; none follows a call into
// its callee. Bugs that cross a call are left to tests that run the
// code: the golden RunResults and `go test -race`.
//
// The API deliberately mirrors golang.org/x/tools/go/analysis (Analyzer,
// Pass, Diagnostic) so the suite can migrate onto the upstream framework
// verbatim once the dependency is available; the container this grows in
// is offline, so the driver and test harness are self-contained over the
// standard library's go/ast, go/types and `go list -export`.
//
// Diagnostics are suppressed, one site at a time, with a staticcheck
// style directive on the offending line or the line above it:
//
//	//lint:ignore floatcompare exact zero check selects a kernel
//
// The analyzer name(s) are comma-separated and the trailing reason is
// mandatory; a malformed directive is itself a diagnostic.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:ignore
	// directives. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description: first line is a summary.
	Doc string
	// Design names the DESIGN.md section(s) documenting the invariant
	// this analyzer enforces (e.g. "§9.4"). The JSON output mode uses it
	// to render the suggested //lint:ignore directive, since every ignore
	// must cite the section it is overriding.
	Design string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Pass provides one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// A Diagnostic is one reported invariant violation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.TypesInfo.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// ObjectOf returns the object denoted by id, consulting Uses then Defs.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if obj := p.TypesInfo.Uses[id]; obj != nil {
		return obj
	}
	return p.TypesInfo.Defs[id]
}

// CalleeFunc resolves a call to the *types.Func it invokes (package-level
// function or method), or nil for calls through function values,
// builtins and type conversions.
func (p *Pass) CalleeFunc(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := p.ObjectOf(fun).(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := p.ObjectOf(fun.Sel).(*types.Func); ok {
			return f
		}
	}
	return nil
}

// PkgFunc reports whether call invokes the package-level function
// pkgPath.name (e.g. "time".Now) — not a method, and not a local
// function value that shadows the package qualifier.
func (p *Pass) PkgFunc(call *ast.CallExpr) (pkgPath, name string, ok bool) {
	f := p.CalleeFunc(call)
	if f == nil || f.Pkg() == nil {
		return "", "", false
	}
	if recv := f.Type().(*types.Signature).Recv(); recv != nil {
		return "", "", false
	}
	return f.Pkg().Path(), f.Name(), true
}

// directive is one parsed //lint:ignore comment.
type directive struct {
	analyzers map[string]bool
	pos       token.Position
	malformed string // non-empty: why the directive could not be parsed
}

// ignoreIndex maps "file:line" to the directive governing that line.
type ignoreIndex map[string]*directive

const directivePrefix = "//lint:ignore"

// parseDirectives indexes every //lint:ignore directive in the files.
// A directive governs the line it appears on and, when it is the only
// thing on its line, the line below it.
func parseDirectives(fset *token.FileSet, files []*ast.File) (ignoreIndex, []*directive) {
	idx := ignoreIndex{}
	var all []*directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				d := &directive{analyzers: map[string]bool{}, pos: pos}
				all = append(all, d)
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, directivePrefix))
				names, reason, _ := strings.Cut(rest, " ")
				switch {
				case names == "":
					d.malformed = "missing analyzer name"
				case strings.TrimSpace(reason) == "":
					d.malformed = "missing reason"
				default:
					for _, n := range strings.Split(names, ",") {
						d.analyzers[strings.TrimSpace(n)] = true
					}
				}
				idx[fmt.Sprintf("%s:%d", pos.Filename, pos.Line)] = d
				idx[fmt.Sprintf("%s:%d", pos.Filename, pos.Line+1)] = d
			}
		}
	}
	return idx, all
}

// Run applies the analyzers to one loaded package and returns the
// surviving diagnostics sorted by position. Every analyzer reads one
// function at a time, so a package's findings do not depend on which
// other packages were loaded with it. Diagnostics on a line governed by
// a well-formed //lint:ignore directive naming the analyzer are
// dropped; malformed directives are reported as diagnostics of the
// pseudo-analyzer "lintdirective".
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	idx, all := parseDirectives(pkg.Fset, pkg.Files)
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
		}
		pass.report = func(d Diagnostic) {
			key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
			if dir, ok := idx[key]; ok && dir.malformed == "" && dir.analyzers[d.Analyzer] {
				return
			}
			diags = append(diags, d)
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
		}
	}
	for _, d := range all {
		if d.malformed != "" {
			diags = append(diags, Diagnostic{
				Pos:      d.pos,
				Analyzer: "lintdirective",
				Message:  fmt.Sprintf("malformed %s directive: %s (want %q)", directivePrefix, d.malformed, directivePrefix+" <analyzer>[,<analyzer>] <reason>"),
			})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// exprString renders a simple expression (identifier / selector / index /
// slice chains) to a canonical string for aliasing comparisons, e.g.
// "s.probScratch[:0]" → callers strip slicing with sliceBase first.
// Unrenderable expressions yield "".
func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := exprString(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.IndexExpr:
		base := exprString(e.X)
		if base == "" {
			return ""
		}
		switch idx := ast.Unparen(e.Index).(type) {
		case *ast.BasicLit:
			return base + "[" + idx.Value + "]"
		default:
			if s := exprString(e.Index); s != "" {
				return base + "[" + s + "]"
			}
		}
		return ""
	}
	return ""
}

// sliceBase strips slice expressions and unary & from e: the expression
// whose backing storage e aliases. s.buf[:0] → s.buf.
func sliceBase(e ast.Expr) ast.Expr {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SliceExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return e
			}
			e = x.X
		default:
			return e
		}
	}
}

// isNilOrFresh reports whether the expression passed as a scratch dst
// argument denotes freshly owned storage: nil, a make/new call, a
// composite literal, or an append of one of those.
func isNilOrFresh(p *Pass, e ast.Expr) bool {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name == "nil"
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
			switch id.Name {
			case "make", "new":
				// Only the builtins, not shadowing functions.
				if _, isBuiltin := p.ObjectOf(id).(*types.Builtin); isBuiltin {
					return true
				}
			}
		}
	}
	return false
}
