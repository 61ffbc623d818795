package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Name  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listPkg mirrors the `go list -json` fields the loader consumes.
type listPkg struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// Resolver resolves import paths for the type-checker, shared by every
// type-check in one load so dependency packages are materialized once.
// Resolution order:
//
//  1. export data from the `go list -export` closure (the fast path —
//     and mandatory when present: mixing a source-checked copy of a
//     package with export-data references to it would split its type
//     identities);
//  2. packages already type-checked from source in this load (each
//     Check registers its result, so a package the source fallback
//     checked once keeps one type identity for every importer);
//  3. fallback: type-check the dependency from source, when go list
//     reported its file list but produced no export data (a cold or
//     poisoned build cache). Standard-library packages never take the
//     fallback — their export data is part of the toolchain, and
//     checking them from source would drag in the runtime.
type Resolver struct {
	fset    *token.FileSet
	exports map[string]string   // import path → export data file
	srcs    map[string]*listPkg // import path → source location (fallback)
	loaded  map[string]*types.Package
	loading map[string]bool // cycle guard for the source fallback
	expImp  types.Importer  // gc export-data importer
}

// Import implements types.Importer over the three-step resolution order.
func (r *Resolver) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if _, ok := r.exports[path]; ok {
		return r.expImp.Import(path)
	}
	if p, ok := r.loaded[path]; ok {
		return p, nil
	}
	if lp, ok := r.srcs[path]; ok && !lp.Standard && len(lp.GoFiles) > 0 {
		if r.loading[path] {
			return nil, fmt.Errorf("lint: import cycle through %q in source fallback", path)
		}
		p, err := r.Check(path, lp.Dir, lp.GoFiles)
		if err != nil {
			return nil, fmt.Errorf("lint: source fallback for %q: %w", path, err)
		}
		return p.Types, nil
	}
	// Last resort: the export importer's own error message names the
	// missing package.
	return r.expImp.Import(path)
}

// NewResolver builds a resolver over a `go list -export` run. extra
// lists import paths (typically stdlib) that must be resolvable even if
// nothing in patterns depends on them — the test-fixture harness uses
// this for packages only fixtures import.
func NewResolver(fset *token.FileSet, moduleDir string, patterns, extra []string) (*Resolver, map[string]*listPkg, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json=ImportPath,Name,Dir,Export,GoFiles,DepOnly,Standard,Error"}, patterns...)
	args = append(args, extra...)
	cmd := exec.Command("go", args...)
	cmd.Dir = moduleDir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	pkgs := map[string]*listPkg{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("decoding go list output: %v", err)
		}
		q := p
		pkgs[p.ImportPath] = &q
	}
	r := &Resolver{
		fset:    fset,
		exports: map[string]string{},
		srcs:    pkgs,
		loaded:  map[string]*types.Package{},
		loading: map[string]bool{},
	}
	for path, p := range pkgs {
		if p.Export != "" {
			r.exports[path] = p.Export
		}
	}
	r.expImp = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		exp, ok := r.exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q (not in the go list -export closure)", path)
		}
		return os.Open(exp)
	})
	return r, pkgs, nil
}

// NewExportResolver builds a resolver over a caller-supplied export-data
// lookup — the vettool path, where go vet's config already maps import
// paths to export files. There is no source fallback: go vet guarantees
// export data for the whole dependency closure.
func NewExportResolver(fset *token.FileSet, lookup func(path string) (io.ReadCloser, error)) *Resolver {
	return &Resolver{
		fset:    fset,
		loaded:  map[string]*types.Package{},
		loading: map[string]bool{},
		expImp:  importer.ForCompiler(fset, "gc", lookup),
	}
}

// Check parses and type-checks one package's files against the
// resolver's dependency closure. path is the import path the package is
// checked under (analyzers scope rules by it). The checked package is
// registered with the resolver, so later imports of it in the same load
// reuse it instead of checking it again.
func (r *Resolver) Check(path, dir string, fileNames []string) (*Package, error) {
	if r.loading == nil {
		r.loading = map[string]bool{}
	}
	if r.loaded == nil {
		r.loaded = map[string]*types.Package{}
	}
	r.loading[path] = true
	defer delete(r.loading, path)
	var files []*ast.File
	for _, name := range fileNames {
		full := name
		if !filepath.IsAbs(full) {
			full = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(r.fset, full, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var tErrs []error
	conf := types.Config{
		Importer: r,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
		Error:    func(err error) { tErrs = append(tErrs, err) },
	}
	tpkg, _ := conf.Check(path, r.fset, files, info)
	if len(tErrs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %v", path, tErrs[0])
	}
	name := ""
	if len(files) > 0 {
		name = files[0].Name.Name
	}
	r.loaded[path] = tpkg
	return &Package{Path: path, Name: name, Dir: dir, Fset: r.fset, Files: files, Types: tpkg, Info: info}, nil
}

// LoadPackages loads every package matched by patterns (relative to
// moduleDir, e.g. "./...") from source, resolving imports through the
// build cache's export data — an offline, stdlib-only stand-in for
// golang.org/x/tools/go/packages. Test files are not loaded: the
// invariants govern shipped code, and tests routinely (and legitimately)
// construct ad-hoc streams and compare exact floats.
func LoadPackages(moduleDir string, patterns ...string) ([]*Package, error) {
	fset := token.NewFileSet()
	r, pkgs, err := NewResolver(fset, moduleDir, patterns, nil)
	if err != nil {
		return nil, err
	}
	var out []*Package
	var paths []string
	for path, p := range pkgs {
		if p.DepOnly || p.Standard {
			continue
		}
		paths = append(paths, path)
	}
	// Deterministic load order → deterministic diagnostic order (and a
	// deterministic choice of which list error surfaces first).
	sort.Strings(paths)
	for _, path := range paths {
		p := pkgs[path]
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", path, p.Error.Err)
		}
		if len(p.GoFiles) == 0 {
			continue
		}
		lp, err := r.Check(p.ImportPath, p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		out = append(out, lp)
	}
	return out, nil
}

// ModuleDir walks up from dir to the enclosing go.mod directory.
func ModuleDir(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		dir = parent
	}
}
