package lint_test

import (
	"testing"

	"qtenon/internal/lint"
	"qtenon/internal/lint/linttest"
)

// TestAnalyzersFireOnViolations is the vacuity guard for the v3
// analyzers: each bad fixture must produce at least one diagnostic from
// the analyzer under test, with a real position inside the fixture. The
// want-comment harness alone cannot catch an analyzer whose scope check
// silently excludes the fixture package — every line without a want
// comment "passes", so a fully inert analyzer sails through Run. This
// test fails instead.
func TestAnalyzersFireOnViolations(t *testing.T) {
	cases := []struct {
		analyzer *lint.Analyzer
		fixture  string
		minDiags int
	}{
		{lint.HotPath, "testdata/hotpath/bad", 10},
		{lint.BitExact, "testdata/bitexact/bad", 4},
		{lint.ShardSafety, "testdata/shardsafety/bad", 4},
		{lint.RoutePurity, "testdata/routepurity/bad", 4},
	}
	for _, tc := range cases {
		t.Run(tc.analyzer.Name, func(t *testing.T) {
			pkg := linttest.Load(t, tc.fixture)
			diags, err := lint.Run(pkg, []*lint.Analyzer{tc.analyzer})
			if err != nil {
				t.Fatal(err)
			}
			if len(diags) < tc.minDiags {
				t.Fatalf("analyzer %s produced %d diagnostics on its bad fixture, want >= %d — the analyzer has gone inert",
					tc.analyzer.Name, len(diags), tc.minDiags)
			}
			for _, d := range diags {
				if d.Analyzer != tc.analyzer.Name {
					t.Errorf("diagnostic attributed to %q, want %q: %s", d.Analyzer, tc.analyzer.Name, d.Message)
				}
				if !d.Pos.IsValid() || d.Pos.Line <= 0 || d.Pos.Filename == "" {
					t.Errorf("diagnostic without a usable position: %+v", d)
				}
				if d.Message == "" {
					t.Error("diagnostic with empty message")
				}
			}
		})
	}
}

// TestAnalyzersSilentOnCleanFixtures is the inverse guard: the good
// fixtures must stay diagnostic-free when run programmatically, proving
// the exemption machinery (cold ranges, partition narrowing, pairing
// parens) actually engages rather than the analyzer flagging everything
// and wants absorbing the noise.
func TestAnalyzersSilentOnCleanFixtures(t *testing.T) {
	cases := []struct {
		analyzer *lint.Analyzer
		fixture  string
	}{
		{lint.HotPath, "testdata/hotpath/good"},
		{lint.BitExact, "testdata/bitexact/good"},
		{lint.ShardSafety, "testdata/shardsafety/good"},
		{lint.RoutePurity, "testdata/routepurity/good"},
	}
	for _, tc := range cases {
		t.Run(tc.analyzer.Name, func(t *testing.T) {
			pkg := linttest.Load(t, tc.fixture)
			diags, err := lint.Run(pkg, []*lint.Analyzer{tc.analyzer})
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range diags {
				t.Errorf("unexpected diagnostic on clean fixture: %s", d)
			}
		})
	}
}
