// Package linttest is the fixture harness for the qtenon-lint analyzers
// — a self-contained, offline stand-in for
// golang.org/x/tools/go/analysis/analysistest with the same fixture
// convention: a comment
//
//	// want `regex`
//
// on a source line asserts that the analyzer reports a diagnostic on
// that line whose message matches the regex. Several backquoted
// patterns may follow one want comment when a line legitimately earns
// several diagnostics. Lines with no want comment must stay clean.
//
// Each fixture directory under testdata/ is type-checked as one
// package. Fixtures may import real qtenon packages (and the stdlib);
// imports resolve through the same `go list -export` closure the
// qtenon-lint driver uses. By default a fixture at
// testdata/determinism/bad is checked under the import path
// "qtenon/fixture/determinism/bad", which puts it inside the module's
// path prefix so path-scoped rules apply; a fixture can opt out (or
// into another path) with a magic comment anywhere in its first file:
//
//	//lintfixture:path example.com/outside
package linttest

import (
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"qtenon/internal/lint"
)

var (
	loadOnce sync.Once
	shared   *lint.Resolver
	loadErr  error
)

// extraPatterns are stdlib packages fixtures may import beyond the
// module's own dependency closure.
var extraPatterns = []string{"time", "math/rand", "math/rand/v2", "sort", "slices", "fmt", "strings"}

// sharedResolver runs `go list -export` once for all fixture tests.
func sharedResolver(t *testing.T) *lint.Resolver {
	t.Helper()
	// Duplicate test goroutines wait behind one `go list -export` run;
	// the run is finite and the test binary owns the whole process.
	loadOnce.Do(func() {
		moduleDir, err := lint.ModuleDir(".")
		if err != nil {
			loadErr = err
			return
		}
		shared, _, loadErr = lint.NewResolver(token.NewFileSet(), moduleDir, []string{"./..."}, extraPatterns)
	})
	if loadErr != nil {
		t.Fatalf("linttest: loading export data: %v", loadErr)
	}
	return shared
}

const pathDirective = "//lintfixture:path "

// loadFixture type-checks the fixture package in dir and returns it
// with the parsed want expectations.
func loadFixture(t *testing.T, dir string) (*lint.Package, map[wantKey][]*wantPattern) {
	t.Helper()
	r := sharedResolver(t)

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			abs, err := filepath.Abs(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatalf("linttest: %v", err)
			}
			files = append(files, abs)
		}
	}
	if len(files) == 0 {
		t.Fatalf("linttest: no .go files in %s", dir)
	}

	pkgPath := "qtenon/fixture/" + filepath.ToSlash(strings.TrimPrefix(dir, "testdata"+string(filepath.Separator)))
	wants := map[wantKey][]*wantPattern{}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatalf("linttest: %v", err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			if p, ok := strings.CutPrefix(strings.TrimSpace(line), pathDirective); ok {
				pkgPath = strings.TrimSpace(p)
				continue
			}
			for _, pat := range parseWants(t, f, i+1, line) {
				k := wantKey{filepath.Base(f), i + 1}
				wants[k] = append(wants[k], pat)
			}
		}
	}

	pkg, err := r.Check(pkgPath, dir, files)
	if err != nil {
		t.Fatalf("linttest: type-checking fixture %s: %v", dir, err)
	}
	return pkg, wants
}

// Load type-checks a fixture package for tests that assert on the
// diagnostics programmatically instead of through want comments (e.g.
// the malformed-directive test, whose diagnostic lands on the directive
// line itself where no want comment can sit).
func Load(t *testing.T, dir string) *lint.Package {
	t.Helper()
	pkg, _ := loadFixture(t, dir)
	return pkg
}

// Run type-checks the fixture package in dir (relative to the calling
// test's package directory, e.g. "testdata/determinism/bad"), applies
// analyzer a through lint.Run — so //lint:ignore suppression and
// malformed-directive reporting are in effect, exactly as in the
// driver — and matches the resulting diagnostics against the fixture's
// want comments.
func Run(t *testing.T, a *lint.Analyzer, dir string) {
	t.Helper()
	pkg, wants := loadFixture(t, dir)
	diags, err := lint.Run(pkg, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("linttest: running %s on %s: %v", a.Name, dir, err)
	}
	matchWants(t, diags, wants)
}

// matchWants checks the diagnostics off against the want expectations,
// reporting both unmet wants and unexpected diagnostics.
func matchWants(t *testing.T, diags []lint.Diagnostic, wants map[wantKey][]*wantPattern) {
	t.Helper()
	matched := make([]bool, len(diags))
	keys := make([]wantKey, 0, len(wants))
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		for _, pat := range wants[k] {
			found := false
			for i, d := range diags {
				if matched[i] || filepath.Base(d.Pos.Filename) != k.file || d.Pos.Line != k.line {
					continue
				}
				if pat.re.MatchString(d.Message) {
					matched[i] = true
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s:%d: no diagnostic matching %q", k.file, k.line, pat.re)
			}
		}
	}
	for i, d := range diags {
		if !matched[i] {
			t.Errorf("%s:%d: unexpected diagnostic: %s (%s)", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Message, d.Analyzer)
		}
	}
}

type wantKey struct {
	file string
	line int
}

type wantPattern struct {
	re *regexp.Regexp
}

var (
	wantComment = regexp.MustCompile(`//\s*want\s+(.+)$`)
	wantChunk   = regexp.MustCompile("`([^`]+)`")
)

// parseWants extracts the backquoted patterns of a want comment, if the
// line carries one.
func parseWants(t *testing.T, file string, lineNo int, line string) []*wantPattern {
	m := wantComment.FindStringSubmatch(line)
	if m == nil {
		return nil
	}
	chunks := wantChunk.FindAllStringSubmatch(m[1], -1)
	if len(chunks) == 0 {
		t.Fatalf("%s:%d: want comment with no backquoted pattern", filepath.Base(file), lineNo)
	}
	pats := make([]*wantPattern, 0, len(chunks))
	for _, c := range chunks {
		re, err := regexp.Compile(c[1])
		if err != nil {
			t.Fatalf("%s:%d: bad want pattern %q: %v", filepath.Base(file), lineNo, c[1], err)
		}
		pats = append(pats, &wantPattern{re: re})
	}
	return pats
}
