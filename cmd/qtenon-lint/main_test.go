package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The CLI contract — exit codes and the JSON schema — is pinned here by
// re-executing the test binary as the tool (TestMain dispatches to
// main() when QTENON_LINT_MAIN is set), so the tests exercise the real
// flag parsing, module loading, and os.Exit paths.

func TestMain(m *testing.M) {
	if os.Getenv("QTENON_LINT_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runLint re-executes this test binary as qtenon-lint in dir.
func runLint(t *testing.T, dir string, args ...string) (stdout, stderr string, exitCode int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "QTENON_LINT_MAIN=1")
	var out, errBuf bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errBuf
	switch err := cmd.Run().(type) {
	case nil:
		exitCode = 0
	case *exec.ExitError:
		exitCode = err.ExitCode()
	default:
		t.Fatalf("running tool: %v", err)
	}
	return out.String(), errBuf.String(), exitCode
}

// writeModule materialises a throwaway module named qtenon (the
// analyzers scope to that path prefix) with the given files.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module qtenon\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestExitCodeCleanModule(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"clean.go": "package clean\n\nfunc Double(n int) int { return 2 * n }\n",
	})
	stdout, stderr, code := runLint(t, dir, "./...")
	if code != 0 {
		t.Fatalf("clean module: exit %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if strings.TrimSpace(stdout) != "" {
		t.Errorf("clean module should print nothing, got:\n%s", stdout)
	}
}

func TestExitCodeDiagnostics(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"dirty.go": "package dirty\n\nimport \"time\"\n\nfunc Stamp() int64 { return time.Now().UnixNano() }\n",
	})
	stdout, _, code := runLint(t, dir, "./...")
	if code != 1 {
		t.Fatalf("module with findings: exit %d, want 1\nstdout:\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "time.Now") || !strings.Contains(stdout, "dirty.go") {
		t.Errorf("text output should name the call and the file, got:\n%s", stdout)
	}
}

func TestExitCodeOperationalFailure(t *testing.T) {
	for _, args := range [][]string{
		{"-only", "nosuchanalyzer", "./..."},
		{"-format", "yaml", "./..."},
	} {
		_, stderr, code := runLint(t, t.TempDir(), args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2\nstderr:\n%s", args, code, stderr)
		}
		if strings.TrimSpace(stderr) == "" {
			t.Errorf("%v: operational failures must explain themselves on stderr", args)
		}
	}
}

// TestJSONSchema pins the -format=json contract: field names, the
// module-relative file path, and the suggested_ignore rendering with
// the analyzer's DESIGN.md section.
func TestJSONSchema(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"kern/kern.go": `package kern

func Same(a, b float64) bool { return a == b }
`,
	})
	stdout, stderr, code := runLint(t, dir, "-only", "floatcompare", "-format=json", "./...")
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}

	// Decode into a raw map first so renamed or dropped fields fail
	// loudly instead of silently unmarshalling to zero values.
	var raw []map[string]any
	if err := json.Unmarshal([]byte(stdout), &raw); err != nil {
		t.Fatalf("output is not a JSON array: %v\n%s", err, stdout)
	}
	if len(raw) == 0 {
		t.Fatal("expected at least one diagnostic")
	}
	for _, key := range []string{"file", "line", "column", "analyzer", "message", "suggested_ignore"} {
		if _, ok := raw[0][key]; !ok {
			t.Errorf("schema field %q missing from %v", key, raw[0])
		}
	}

	var diags []jsonDiag
	if err := json.Unmarshal([]byte(stdout), &diags); err != nil {
		t.Fatal(err)
	}
	d := diags[0]
	if d.Analyzer != "floatcompare" {
		t.Errorf("analyzer = %q, want floatcompare", d.Analyzer)
	}
	if d.File != "kern/kern.go" {
		t.Errorf("file = %q, want module-relative kern/kern.go", d.File)
	}
	if d.Line <= 0 || d.Column <= 0 {
		t.Errorf("position %d:%d should be 1-based", d.Line, d.Column)
	}
	if !strings.Contains(d.Message, "tolerance") {
		t.Errorf("message should state the invariant, got %q", d.Message)
	}
	want := "//lint:ignore floatcompare"
	if !strings.HasPrefix(d.SuggestedIgnore, want) || !strings.Contains(d.SuggestedIgnore, "DESIGN.md §9") {
		t.Errorf("suggested_ignore = %q, want prefix %q citing DESIGN.md §9", d.SuggestedIgnore, want)
	}
}

func TestListNamesAllAnalyzers(t *testing.T) {
	stdout, _, code := runLint(t, t.TempDir(), "-list")
	if code != 0 {
		t.Fatalf("-list: exit %d, want 0", code)
	}
	for _, name := range []string{
		"determinism", "scratcharena", "metricsdiscipline", "floatcompare",
		"eventretention", "parsafety",
	} {
		if !strings.Contains(stdout, name) {
			t.Errorf("-list output missing analyzer %q:\n%s", name, stdout)
		}
	}
}
