// Command qtenon-lint runs the repository's invariant analyzers
// (internal/lint) over Go packages: determinism, scratcharena,
// metricsdiscipline, floatcompare, eventretention, parsafety, unitflow,
// deepscratch, hotpath, bitexact, shardsafety, routepurity. See
// DESIGN.md §9–§10 for the invariant catalogue, the interprocedural
// summaries, and the //lint:ignore suppression directive, and §14 for
// the v3 allocation/bit-exactness/partition/purity analyzers.
//
// Usage:
//
//	qtenon-lint ./...                 # whole module (CI gate)
//	qtenon-lint -only determinism ./internal/qsim
//	qtenon-lint -list                 # list analyzers
//	qtenon-lint -format=json ./...    # machine-readable diagnostics
//	qtenon-lint -format=github ./...  # GitHub Actions annotations
//
// All named packages are loaded into one interprocedural program, so
// function summaries cross package boundaries; narrowing the patterns
// narrows what the summary-driven analyzers can see.
//
// It can also serve as a vet tool, reusing go vet's package loader and
// build cache (one package per invocation, so summaries degrade to the
// intra-package view):
//
//	go vet -vettool=$(command -v qtenon-lint) ./...
//
// Exit status: 0 clean, 1 diagnostics reported, 2 operational failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"qtenon/internal/lint"
)

func main() {
	// go vet drives vet tools through a protocol: `tool -V=full` for a
	// cache-busting version line, then `tool <flags> <file>.cfg` per
	// package. Detect those shapes before normal flag parsing.
	if handleVetProtocol(os.Args[1:]) {
		return
	}

	var (
		only    = flag.String("only", "", "comma-separated analyzer names to run (default: all)")
		list    = flag.Bool("list", false, "list analyzers and exit")
		jsonOut = flag.Bool("json", false, "emit diagnostics as JSON (same as -format=json)")
		format  = flag.String("format", "text", "output format: text, json, or github (Actions annotations)")
		quiet   = flag.Bool("q", false, "quiet: only the diagnostic count")
	)
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-18s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *jsonOut {
		*format = "json"
	}
	switch *format {
	case "text", "json", "github":
	default:
		fmt.Fprintf(os.Stderr, "qtenon-lint: unknown -format %q (want text, json, or github)\n", *format)
		os.Exit(2)
	}

	analyzers := lint.All()
	if *only != "" {
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*only, ",") {
			a := lint.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "qtenon-lint: unknown analyzer %q (try -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	moduleDir, err := lint.ModuleDir(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "qtenon-lint: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := lint.LoadPackages(moduleDir, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qtenon-lint: %v\n", err)
		os.Exit(2)
	}

	// One program over every loaded package: the summary-driven
	// analyzers see across package boundaries.
	diags, err := lint.RunProgram(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qtenon-lint: %v\n", err)
		os.Exit(2)
	}

	switch *format {
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			out = append(out, newJSONDiag(moduleDir, d))
		}
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "qtenon-lint: %v\n", err)
			os.Exit(2)
		}
	case "github":
		for _, d := range diags {
			fmt.Println(githubAnnotation(moduleDir, d))
		}
	default:
		if *quiet {
			fmt.Printf("qtenon-lint: %d diagnostic(s)\n", len(diags))
			break
		}
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// jsonDiag is the stable machine-readable diagnostic schema. Field
// names are part of the CLI contract (pinned by TestJSONSchema); add
// fields, never rename or remove them. File paths are module-relative
// when the file lives inside the module, so output is stable across
// checkouts.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	// SuggestedIgnore is a ready-to-edit suppression directive for this
	// diagnostic, with the DESIGN.md section the reason must cite.
	SuggestedIgnore string `json:"suggested_ignore,omitempty"`
}

func newJSONDiag(moduleDir string, d lint.Diagnostic) jsonDiag {
	file := d.Pos.Filename
	if rel, err := filepath.Rel(moduleDir, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = filepath.ToSlash(rel)
	}
	jd := jsonDiag{
		File:     file,
		Line:     d.Pos.Line,
		Column:   d.Pos.Column,
		Analyzer: d.Analyzer,
		Message:  d.Message,
	}
	if a := lint.ByName(d.Analyzer); a != nil && a.Design != "" {
		jd.SuggestedIgnore = fmt.Sprintf("//lint:ignore %s <why this site is exempt> (DESIGN.md %s)", a.Name, a.Design)
	}
	return jd
}

// githubAnnotation renders one diagnostic as a GitHub Actions workflow
// command, which the runner turns into an inline PR annotation. Paths
// are made workspace-relative so GitHub can match them to the diff, and
// the property/message escaping follows the Actions toolkit rules.
func githubAnnotation(moduleDir string, d lint.Diagnostic) string {
	file := d.Pos.Filename
	if rel, err := filepath.Rel(moduleDir, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = filepath.ToSlash(rel)
	}
	return fmt.Sprintf("::error file=%s,line=%d,col=%d,title=qtenon-lint/%s::%s",
		escapeGithubProperty(file), d.Pos.Line, d.Pos.Column,
		escapeGithubProperty(d.Analyzer), escapeGithubData(d.Message))
}

// escapeGithubData escapes a workflow-command message payload.
func escapeGithubData(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// escapeGithubProperty escapes a workflow-command property value.
func escapeGithubProperty(s string) string {
	s = escapeGithubData(s)
	s = strings.ReplaceAll(s, ":", "%3A")
	s = strings.ReplaceAll(s, ",", "%2C")
	return s
}
