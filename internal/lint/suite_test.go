package lint_test

import (
	"os"
	"strings"
	"testing"

	"qtenon/internal/lint"
	"qtenon/internal/lint/linttest"
)

func TestDeterminismFixtures(t *testing.T) {
	for _, dir := range []string{"bad", "good", "outside"} {
		t.Run(dir, func(t *testing.T) { linttest.Run(t, lint.Determinism, "testdata/determinism/"+dir) })
	}
}

func TestScratchArenaFixtures(t *testing.T) {
	for _, dir := range []string{"bad", "good"} {
		t.Run(dir, func(t *testing.T) { linttest.Run(t, lint.ScratchArena, "testdata/scratcharena/"+dir) })
	}
}

func TestMetricsDisciplineFixtures(t *testing.T) {
	for _, dir := range []string{"bad", "good"} {
		t.Run(dir, func(t *testing.T) { linttest.Run(t, lint.MetricsDiscipline, "testdata/metricsdiscipline/"+dir) })
	}
}

func TestFloatCompareFixtures(t *testing.T) {
	for _, dir := range []string{"bad", "good"} {
		t.Run(dir, func(t *testing.T) { linttest.Run(t, lint.FloatCompare, "testdata/floatcompare/"+dir) })
	}
}

func TestEventRetentionFixtures(t *testing.T) {
	for _, dir := range []string{"bad", "good"} {
		t.Run(dir, func(t *testing.T) { linttest.Run(t, lint.EventRetention, "testdata/eventretention/"+dir) })
	}
}

func TestParSafetyFixtures(t *testing.T) {
	for _, dir := range []string{"bad", "good"} {
		t.Run(dir, func(t *testing.T) { linttest.Run(t, lint.ParSafety, "testdata/parsafety/"+dir) })
	}
	t.Run("multipkg", func(t *testing.T) { linttest.RunMulti(t, lint.ParSafety, "testdata/parsafety/multipkg") })
}

func TestUnitFlowFixtures(t *testing.T) {
	for _, dir := range []string{"bad", "good"} {
		t.Run(dir, func(t *testing.T) { linttest.Run(t, lint.UnitFlow, "testdata/unitflow/"+dir) })
	}
	t.Run("multipkg", func(t *testing.T) { linttest.RunMulti(t, lint.UnitFlow, "testdata/unitflow/multipkg") })
}

func TestDeepScratchFixtures(t *testing.T) {
	for _, dir := range []string{"bad", "good"} {
		t.Run(dir, func(t *testing.T) { linttest.Run(t, lint.DeepScratch, "testdata/deepscratch/"+dir) })
	}
	t.Run("multipkg", func(t *testing.T) { linttest.RunMulti(t, lint.DeepScratch, "testdata/deepscratch/multipkg") })
}

func TestHotPathFixtures(t *testing.T) {
	for _, dir := range []string{"bad", "good"} {
		t.Run(dir, func(t *testing.T) { linttest.Run(t, lint.HotPath, "testdata/hotpath/"+dir) })
	}
	t.Run("multipkg", func(t *testing.T) { linttest.RunMulti(t, lint.HotPath, "testdata/hotpath/multipkg") })
}

func TestBitExactFixtures(t *testing.T) {
	for _, dir := range []string{"bad", "good"} {
		t.Run(dir, func(t *testing.T) { linttest.Run(t, lint.BitExact, "testdata/bitexact/"+dir) })
	}
}

func TestShardSafetyFixtures(t *testing.T) {
	for _, dir := range []string{"bad", "good"} {
		t.Run(dir, func(t *testing.T) { linttest.Run(t, lint.ShardSafety, "testdata/shardsafety/"+dir) })
	}
}

func TestRoutePurityFixtures(t *testing.T) {
	for _, dir := range []string{"bad", "good", "engine"} {
		t.Run(dir, func(t *testing.T) { linttest.Run(t, lint.RoutePurity, "testdata/routepurity/"+dir) })
	}
}

// TestDirectives drives the //lint:ignore machinery programmatically:
// the malformed-directive diagnostic lands on the directive's own line,
// where a want comment cannot sit.
func TestDirectives(t *testing.T) {
	const fixture = "testdata/directives/directives.go"
	pkg := linttest.Load(t, "testdata/directives")
	diags, err := lint.Run(pkg, []*lint.Analyzer{lint.FloatCompare})
	if err != nil {
		t.Fatal(err)
	}

	var floatDiags, directiveDiags int
	for _, d := range diags {
		switch d.Analyzer {
		case "floatcompare":
			floatDiags++
		case "lintdirective":
			directiveDiags++
			if !strings.Contains(d.Message, "missing reason") {
				t.Errorf("malformed-directive diagnostic should name the defect, got %q", d.Message)
			}
		default:
			t.Errorf("unexpected analyzer %q: %s", d.Analyzer, d.Message)
		}
	}
	// wrongName and missingReason each leak one float comparison; the
	// reason-less directive is itself reported.
	if floatDiags != 2 || directiveDiags != 1 {
		t.Errorf("got %d floatcompare + %d lintdirective diagnostics, want 2 + 1:\n%v", floatDiags, directiveDiags, diags)
	}

	// The well-formed directive must silence the comparison on the line
	// below it.
	suppressedLine := lineContaining(t, fixture, "calibrated against golden fixtures") + 1
	for _, d := range diags {
		if d.Pos.Line == suppressedLine {
			t.Errorf("line %d is governed by a well-formed //lint:ignore but was reported: %s", suppressedLine, d.Message)
		}
	}
}

// lineContaining returns the 1-based line of the first occurrence of
// substr in file.
func lineContaining(t *testing.T, file, substr string) int {
	t.Helper()
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(src), "\n") {
		if strings.Contains(line, substr) {
			return i + 1
		}
	}
	t.Fatalf("%s: no line contains %q", file, substr)
	return 0
}

// TestSuiteCleanOnModule runs the full suite over the real module tree
// — the same gate CI applies with `go run ./cmd/qtenon-lint ./...`.
// Reverting any of the determinism/scratch sweeps makes this fail.
func TestSuiteCleanOnModule(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	moduleDir, err := lint.ModuleDir(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.LoadPackages(moduleDir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; pattern ./... should cover the module", len(pkgs))
	}
	// One program across all packages, exactly as the driver runs — the
	// interprocedural analyzers see whole-module summaries.
	diags, err := lint.RunProgram(pkgs, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
