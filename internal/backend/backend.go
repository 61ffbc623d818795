// Package backend is the single run path every executor in the
// repository goes through. The paper's evaluation is a comparison
// between machines — tightly coupled Qtenon and the decoupled baseline —
// and this package is where "a machine" is defined: anything that can
// evaluate a parameter vector with timing accounting and report a
// report.RunResult. The optimizer-driving loop (algorithm dispatch,
// evaluation counting, convergence history) lives here exactly once;
// internal/system and internal/baseline are adapters, and a future
// executor (hardware-only, noisy, remote) is another ~100-line adapter
// rather than a third copy of the loop.
package backend

import (
	"fmt"
	"math"

	"qtenon/internal/metrics"
	"qtenon/internal/opt"
	"qtenon/internal/report"
	"qtenon/internal/vqa"
)

// Algorithm selects the classical optimizer driving a run.
type Algorithm uint8

// Supported algorithms: the paper's pair (§7.1).
const (
	GD Algorithm = iota
	SPSA
)

var algorithmNames = [...]string{"GD", "SPSA"}

// String names the algorithm.
func (a Algorithm) String() string {
	if int(a) < len(algorithmNames) {
		return algorithmNames[a]
	}
	return fmt.Sprintf("algorithm(%d)", uint8(a))
}

// Backend is one executor instance bound to one workload. Evaluate is an
// opt.Evaluator with full machine accounting behind it; Result reports
// everything accumulated so far. Backends are stateful and serial: one
// optimization run per instance, minted fresh from a Factory. Evaluate
// rejects a parameter vector of the wrong length or with a non-finite
// value (CheckParams) before it touches any state.
type Backend interface {
	Evaluate(params []float64) (float64, error)
	Result() report.RunResult
}

// Factory mints independent Backend instances. Independence is the
// contract that lets sweeps run grid points on concurrently-owned
// machines: two instances share no mutable state, including their
// metrics registries.
type Factory interface {
	New(w *vqa.Workload) (Backend, error)
}

// Instrumented is implemented by backends that expose a live metrics
// registry (see internal/metrics for the naming scheme).
type Instrumented interface {
	Metrics() *metrics.Registry
}

// Batcher is implemented by backends that evaluate a list of parameter
// vectors in one call, one Evaluate per vector in list order. Nothing in
// this module calls EvaluateBatch: RunOn drives every optimizer through
// Evaluate. It stays only because perfbench's probe refuses a machine
// that does not implement it; it goes with the probe's check, when the
// benchmark drops its replay (ROADMAP.md item 6).
type Batcher interface {
	EvaluateBatch(sets [][]float64, out []float64) error
}

// CheckParams returns an error when params does not hold the want
// values a workload binds, or one naming the first NaN or infinite
// parameter. A non-finite angle has no quantized value, so a machine
// that took one would report a cost for some other angle, and an
// optimizer that diverged would run on without noticing.
func CheckParams(params []float64, want int) error {
	if len(params) != want {
		return fmt.Errorf("%d parameters, want %d", len(params), want)
	}
	for i, p := range params {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return fmt.Errorf("parameter %d is %v, not finite", i, p)
		}
	}
	return nil
}

// MetricsOf returns b's metrics registry, or nil when b is not
// instrumented — safe to snapshot either way.
func MetricsOf(b Backend) *metrics.Registry {
	if i, ok := b.(Instrumented); ok {
		return i.Metrics()
	}
	return nil
}

// RunOn drives one full optimization over an existing backend and
// returns its accounting. History and Evaluations come from the
// optimizer, which is authoritative for the run (the backend may have
// been evaluated before, e.g. by a warm-up; a fresh instance agrees with
// its own counts).
func RunOn(b Backend, initial []float64, alg Algorithm, o opt.Options) (report.RunResult, error) {
	var res opt.Result
	var err error
	switch alg {
	case SPSA:
		res, err = opt.SPSA(b.Evaluate, initial, o)
	default:
		// Unknown values fall back to GD, the historical front-door
		// behaviour.
		res, err = opt.GradientDescent(b.Evaluate, initial, o)
	}
	if err != nil {
		return report.RunResult{}, err
	}
	out := b.Result()
	out.History = res.History
	out.Evaluations = res.Evaluations
	return out, nil
}

// Run mints a fresh backend from the factory and executes one full
// optimization from the workload's deterministic starting point — the
// one run loop behind every figure and table.
func Run(f Factory, w *vqa.Workload, alg Algorithm, o opt.Options) (report.RunResult, error) {
	b, err := f.New(w)
	if err != nil {
		return report.RunResult{}, err
	}
	return RunOn(b, w.InitialParams, alg, o)
}
