// Package opt implements the two parameter-optimization algorithms the
// paper evaluates (§7.1):
//
//   - Gradient Descent using the parameter-shift rule: each iteration
//     evaluates the cost at θ ± π/2 per parameter (2P evaluations), so
//     it needs many communication rounds but each round's classical work
//     is small — one parameter changes per evaluation.
//   - SPSA: each iteration evaluates two simultaneous random
//     perturbations regardless of P, so communication rounds are few but
//     every evaluation updates all parameters.
//
// Optimizers drive an Evaluator callback; the system models implement
// Evaluator with full timing accounting, so the optimizer's evaluation
// pattern is the communication pattern.
package opt

import (
	"fmt"
	"math"

	"qtenon/internal/rng"
)

// Evaluator estimates the cost at a parameter vector. The optimizers call
// it serially, in a fixed order, so a stateful machine model may
// accumulate timing per call.
type Evaluator func(params []float64) (float64, error)

// Options configures an optimization run.
type Options struct {
	Iterations   int
	LearningRate float64 // GD step size
	ShiftScale   float64 // parameter-shift step (π/2 canonical)
	SPSAa        float64 // SPSA step-size numerator
	SPSAc        float64 // SPSA perturbation magnitude
	Seed         int64
}

// DefaultOptions matches the paper's setup: 10 iterations.
func DefaultOptions() Options {
	return Options{
		Iterations:   10,
		LearningRate: 0.1,
		ShiftScale:   math.Pi / 2,
		SPSAa:        0.2,
		SPSAc:        0.15,
		Seed:         1,
	}
}

// Result reports an optimization run.
type Result struct {
	Params      []float64
	History     []float64 // cost after each iteration
	Evaluations int       // total Evaluator calls
}

// validate checks run options. A zero-length parameter vector is
// allowed: gradient loops degrade to one plain evaluation per iteration
// (0-parameter workloads — e.g. the Clifford stabilizer family — have
// nothing to optimize but still exercise the full evaluation pipeline).
func (o Options) validate(nparams int) error {
	if o.Iterations <= 0 {
		return fmt.Errorf("opt: non-positive iteration count %d", o.Iterations)
	}
	if nparams < 0 {
		return fmt.Errorf("opt: negative parameter count %d", nparams)
	}
	return nil
}

// GradientDescent minimizes eval with the parameter-shift rule: each
// iteration evaluates θ ± s·e_i for every parameter i, in that order,
// then the cost at the updated point.
func GradientDescent(eval Evaluator, initial []float64, o Options) (Result, error) {
	return GradientDescentBatch(Batch(eval), initial, o)
}

// SPSA minimizes eval with simultaneous perturbation stochastic
// approximation using Rademacher perturbations and the standard decaying
// gain sequences.
func SPSA(eval Evaluator, initial []float64, o Options) (Result, error) {
	if err := o.validate(len(initial)); err != nil {
		return Result{}, err
	}
	rng := rng.New(o.Seed)
	params := append([]float64(nil), initial...)
	var res Result
	plusP := make([]float64, len(params))
	minusP := make([]float64, len(params))
	delta := make([]float64, len(params))
	const (
		alpha = 0.602
		gamma = 0.101
		A     = 2.0
	)
	for iter := 0; iter < o.Iterations; iter++ {
		ak := o.SPSAa / math.Pow(float64(iter)+1+A, alpha)
		ck := o.SPSAc / math.Pow(float64(iter)+1, gamma)
		for i := range delta {
			if rng.Intn(2) == 0 {
				delta[i] = 1
			} else {
				delta[i] = -1
			}
			plusP[i] = params[i] + ck*delta[i]
			minusP[i] = params[i] - ck*delta[i]
		}
		plus, err := eval(plusP)
		if err != nil {
			return res, err
		}
		minus, err := eval(minusP)
		if err != nil {
			return res, err
		}
		res.Evaluations += 2
		g := (plus - minus) / (2 * ck)
		for i := range params {
			params[i] -= ak * g * delta[i]
		}
		cost, err := eval(params)
		if err != nil {
			return res, err
		}
		res.Evaluations++
		res.History = append(res.History, cost)
	}
	res.Params = params
	return res, nil
}
