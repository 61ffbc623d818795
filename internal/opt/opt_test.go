package opt

import (
	"errors"
	"math"
	"testing"
)

// quadratic is a deterministic strictly convex objective with minimum at
// the target vector.
func quadratic(target []float64) Evaluator {
	return func(p []float64) (float64, error) {
		var s float64
		for i := range p {
			d := p[i] - target[i]
			s += d * d
		}
		return s, nil
	}
}

// sinusoidal mimics a VQA landscape: sum of cos terms, so the
// parameter-shift rule is exact. Offsets avoid stationary starting
// points.
func sinusoidal(n int) Evaluator {
	return func(p []float64) (float64, error) {
		var s float64
		for i := 0; i < n; i++ {
			s += math.Cos(p[i] - 0.5*float64(i) - 0.2)
		}
		return s, nil
	}
}

func TestGDConvergesOnQuadratic(t *testing.T) {
	target := []float64{1.5, -0.5, 2.0}
	o := DefaultOptions()
	o.Iterations = 60
	o.LearningRate = 0.5
	// On a quadratic the shift rule estimates gradient·shift; shift 0.5
	// with lr 0.5 gives a contraction of 1/2 per iteration.
	o.ShiftScale = 0.5
	res, err := GradientDescent(quadratic(target), []float64{0, 0, 0}, o)
	if err != nil {
		t.Fatal(err)
	}
	final := res.History[len(res.History)-1]
	if final > 1e-3 {
		t.Errorf("final cost = %v, want ≈0", final)
	}
	for i := range target {
		if math.Abs(res.Params[i]-target[i]) > 0.05 {
			t.Errorf("param %d = %v, want %v", i, res.Params[i], target[i])
		}
	}
}

func TestGDParameterShiftOnSinusoid(t *testing.T) {
	// π/2 shift is the exact gradient rule for cos landscapes.
	o := DefaultOptions()
	o.Iterations = 40
	o.LearningRate = 0.3
	n := 4
	res, err := GradientDescent(sinusoidal(n), make([]float64, n), o)
	if err != nil {
		t.Fatal(err)
	}
	// Minimum of Σ cos(...) is -n.
	final := res.History[len(res.History)-1]
	if final > -float64(n)+0.05 {
		t.Errorf("final cost = %v, want ≈ %v", final, -float64(n))
	}
}

func TestGDEvaluationCount(t *testing.T) {
	n, iters := 5, 10
	o := DefaultOptions()
	o.Iterations = iters
	calls := 0
	eval := func(p []float64) (float64, error) { calls++; return 0, nil }
	res, err := GradientDescent(eval, make([]float64, n), o)
	if err != nil {
		t.Fatal(err)
	}
	// (2·P + 1) evaluations per iteration.
	want := (2*n + 1) * iters
	if calls != want || res.Evaluations != want {
		t.Errorf("calls = %d, res = %d, want %d", calls, res.Evaluations, want)
	}
}

func TestSPSAEvaluationCount(t *testing.T) {
	o := DefaultOptions()
	o.Iterations = 10
	calls := 0
	eval := func(p []float64) (float64, error) { calls++; return 0, nil }
	res, err := SPSA(eval, make([]float64, 100), o)
	if err != nil {
		t.Fatal(err)
	}
	// 3 evaluations per iteration.
	want := 3 * 10
	if calls != want || res.Evaluations != want {
		t.Errorf("calls = %d, want %d", calls, want)
	}
	// SPSA call count is independent of the parameter count — the
	// property §7.2 leans on.
	calls = 0
	if _, err := SPSA(eval, make([]float64, 3), o); err != nil {
		t.Fatal(err)
	}
	if calls != want {
		t.Errorf("SPSA calls changed with param count: %d vs %d", calls, want)
	}
}

func TestSPSAImprovesQuadratic(t *testing.T) {
	target := []float64{0.8, -0.3, 0.5, 1.1}
	o := DefaultOptions()
	o.Iterations = 120
	o.SPSAa = 0.4
	eval := quadratic(target)
	start, _ := eval([]float64{0, 0, 0, 0})
	res, err := SPSA(eval, []float64{0, 0, 0, 0}, o)
	if err != nil {
		t.Fatal(err)
	}
	final := res.History[len(res.History)-1]
	if final > start/4 {
		t.Errorf("SPSA final %v vs start %v: insufficient progress", final, start)
	}
}

func TestSPSADeterministicWithSeed(t *testing.T) {
	o := DefaultOptions()
	o.Iterations = 5
	run := func() []float64 {
		res, err := SPSA(quadratic([]float64{1, 1}), []float64{0, 0}, o)
		if err != nil {
			t.Fatal(err)
		}
		return res.Params
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("SPSA not deterministic for fixed seed")
		}
	}
}

func TestOptionValidation(t *testing.T) {
	o := DefaultOptions()
	o.Iterations = 0
	if _, err := GradientDescent(quadratic([]float64{0}), []float64{0}, o); err == nil {
		t.Error("GD accepted 0 iterations")
	}
	// Zero-parameter vectors are legal: gradient loops degrade to one
	// plain evaluation per iteration (0-param Clifford workloads).
	res, err := SPSA(quadratic(nil), nil, DefaultOptions())
	if err != nil {
		t.Errorf("SPSA rejected empty params: %v", err)
	} else if len(res.History) != DefaultOptions().Iterations {
		t.Errorf("0-param SPSA history = %d, want %d", len(res.History), DefaultOptions().Iterations)
	}
	gres, err := GradientDescent(quadratic(nil), nil, DefaultOptions())
	if err != nil {
		t.Errorf("GD rejected empty params: %v", err)
	} else if gres.Evaluations != DefaultOptions().Iterations {
		t.Errorf("0-param GD evaluations = %d, want %d (one per iteration)", gres.Evaluations, DefaultOptions().Iterations)
	}
}

func TestHistoryLength(t *testing.T) {
	o := DefaultOptions()
	o.Iterations = 7
	res, err := GradientDescent(quadratic([]float64{1}), []float64{0}, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 7 {
		t.Errorf("history = %d entries, want 7", len(res.History))
	}
}

// An evaluator error stops every optimizer and surfaces unchanged.
func TestErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name string
		run  func(Evaluator, []float64, Options) (Result, error)
	}{{"GD", GradientDescent}, {"SPSA", SPSA}} {
		calls := 0
		eval := func(p []float64) (float64, error) {
			if calls++; calls == 3 {
				return 0, boom
			}
			return quadratic([]float64{0.3, 0.6, 0.9})(p)
		}
		o := DefaultOptions()
		o.Iterations = 2
		if _, err := tc.run(eval, []float64{1, 2, 3}, o); !errors.Is(err, boom) {
			t.Errorf("%s error = %v, want %v", tc.name, err, boom)
		}
		if calls != 3 {
			t.Errorf("%s made %d evaluations, want it to stop at the failing third", tc.name, calls)
		}
	}
}
