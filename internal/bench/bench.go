// Package bench regenerates every table and figure of the paper's
// evaluation section (§7). Each generator runs the actual system models
// — no canned numbers except the embedded paper-reference values printed
// alongside for comparison — and renders a text report.
//
// Generators accept a Scale: Full reproduces the paper's parameters
// (500 shots, 10 iterations, 8–64-qubit sweeps); Quick shrinks them for
// CI and `go test -bench`.
package bench

import (
	"fmt"

	"qtenon/internal/backend"
	"qtenon/internal/baseline"
	"qtenon/internal/host"
	"qtenon/internal/opt"
	"qtenon/internal/par"
	"qtenon/internal/report"
	"qtenon/internal/route"
	"qtenon/internal/system"
	"qtenon/internal/vqa"
)

// Scale selects experiment size. Method optionally pins every run's
// simulation engine (qtenon-bench -method); the route.Auto zero value
// lets each chip's router choose per circuit, except at the Figure 11/12
// sweep points sweepScale sends to the product surrogate.
type Scale struct {
	Quick  bool
	Method route.Method
}

// Full is the paper-faithful scale; Quick is the CI scale.
var (
	Full       = Scale{Quick: false}
	QuickScale = Scale{Quick: true}
)

// Iterations returns the optimizer iteration count (paper: 10).
func (s Scale) Iterations() int {
	if s.Quick {
		return 2
	}
	return 10
}

// Shots returns the per-circuit shot count (paper: 500).
func (s Scale) Shots() int {
	if s.Quick {
		return 100
	}
	return 500
}

// SweepQubits returns the Figure 11/12 qubit sweep (paper: 8–64).
// Quick stays below the exact-simulation threshold at sizes where the
// statevector is small.
func (s Scale) SweepQubits() []int {
	if s.Quick {
		return []int{8, 12}
	}
	return []int{8, 16, 24, 32, 40, 48, 56, 64}
}

// ScaleQubits returns the Figure 17 sweep (paper: 64–320).
func (s Scale) ScaleQubits() []int {
	if s.Quick {
		return []int{64, 128}
	}
	return []int{64, 128, 192, 256, 320}
}

// HeadlineQubits is the paper's headline register size, shrunk under
// Quick.
func (s Scale) HeadlineQubits() int {
	if s.Quick {
		return 12
	}
	return 64
}

func (s Scale) options() opt.Options {
	o := opt.DefaultOptions()
	o.Iterations = s.Iterations()
	return o
}

// algorithms lists the paper's two optimizers in the order the tables
// print them.
var algorithms = []backend.Algorithm{backend.GD, backend.SPSA}

// runQtenon executes a full optimization on the Qtenon system.
func runQtenon(kind vqa.Kind, nq int, core host.Core, alg backend.Algorithm, sc Scale) (report.RunResult, error) {
	return runQtenonCfg(system.DefaultConfig(core), kind, nq, alg, sc)
}

func runQtenonCfg(cfg system.Config, kind vqa.Kind, nq int, alg backend.Algorithm, sc Scale) (report.RunResult, error) {
	cfg.Shots = sc.Shots()
	if sc.Method != route.Auto {
		cfg.Method = sc.Method
	}
	o := sc.options()
	return cache.do(qtenonKey(cfg, kind, nq, alg, o), func() (report.RunResult, error) {
		w, err := vqa.New(kind, nq)
		if err != nil {
			return report.RunResult{}, err
		}
		return backend.Run(system.Factory{Cfg: cfg}, w, alg, o)
	})
}

// runBaseline executes a full optimization on the decoupled baseline.
func runBaseline(kind vqa.Kind, nq int, alg backend.Algorithm, sc Scale) (report.RunResult, error) {
	cfg := baseline.DefaultConfig()
	cfg.Shots = sc.Shots()
	if sc.Method != route.Auto {
		cfg.Method = sc.Method
	}
	o := sc.options()
	return cache.do(baselineKey(cfg, kind, nq, alg, o), func() (report.RunResult, error) {
		w, err := vqa.New(kind, nq)
		if err != nil {
			return report.RunResult{}, err
		}
		return backend.Run(baseline.Factory{Cfg: cfg}, w, alg, o)
	})
}

// forEachPoint evaluates fn(i) for every sweep point, fanning the
// independent points across the worker pool. Each point builds its own
// workload and system, so points share no state; callers store results
// by index, which keeps output row order deterministic regardless of
// completion order. The first error (by point index) is returned.
func forEachPoint(n int, fn func(i int) error) error {
	errs := make([]error, n)
	par.Do(n, func(i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func header(title string) string {
	return fmt.Sprintf("== %s ==\n", title)
}

// table aliases the report table builder for brevity inside generators.
type table = report.Table

func newTable(cols ...string) *table { return report.NewTable(cols...) }
