package opt

// BatchEvaluator estimates the cost at every parameter vector in sets,
// writing out[k] for sets[k]. Implementations must evaluate the points
// with the same numerics and, for stateful accounting evaluators, the
// same per-call sequence as Batch over their serial Evaluator, so a run
// is identical whichever form drives it.
//
// len(out) == len(sets) is the caller's responsibility; the vectors in
// sets may alias the evaluator's own scratch between calls but are
// read-only during one call.
type BatchEvaluator func(sets [][]float64, out []float64) error

// Batch adapts a plain Evaluator to the batch interface by evaluating
// serially in batch order — the reference semantics every specialized
// BatchEvaluator must match.
func Batch(eval Evaluator) BatchEvaluator {
	return func(sets [][]float64, out []float64) error {
		for k, p := range sets {
			v, err := eval(p)
			if err != nil {
				return err
			}
			out[k] = v
		}
		return nil
	}
}

// batchScratch is the reusable working memory of batched parameter-shift
// runs: the 2P shifted vectors (views into one flat backing array), the
// batch-order value array, and the single-point batch used for the
// post-update cost.
type batchScratch struct {
	flat    []float64
	sets    [][]float64
	vals    []float64
	oneSet  [][]float64
	oneVal  []float64
	oneData []float64
}

func (s *batchScratch) ensure(p int) {
	n := 2 * p
	// oneVal==nil catches the p==0 first call: the gradient batch is
	// empty, but the post-update cost still needs its single-point batch.
	if s.oneVal == nil || cap(s.flat) < n*p {
		s.flat = make([]float64, n*p)
		s.sets = make([][]float64, n)
		for k := 0; k < n; k++ {
			s.sets[k] = s.flat[k*p : (k+1)*p]
		}
		s.vals = make([]float64, n)
		s.oneData = make([]float64, p)
		s.oneSet = [][]float64{s.oneData}
		s.oneVal = make([]float64, 1)
	}
	s.sets = s.sets[:n]
	s.vals = s.vals[:n]
}

// shiftGradientBatch fills grad with the parameter-shift estimate at
// params, grad[i] = (E(θ+s·e_i) − E(θ−s·e_i)) / 2, using one
// BatchEvaluator call for all 2P shifted points ordered
// [+0, −0, +1, −1, …]; a Batch-adapted Evaluator sees exactly that
// serial sequence.
func shiftGradientBatch(eval BatchEvaluator, params []float64, shift float64, grad []float64, scr *batchScratch) (int, error) {
	p := len(params)
	scr.ensure(p)
	for i := 0; i < p; i++ {
		plus, minus := scr.sets[2*i], scr.sets[2*i+1]
		copy(plus, params)
		copy(minus, params)
		plus[i] = params[i] + shift
		minus[i] = params[i] - shift
	}
	if err := eval(scr.sets, scr.vals); err != nil {
		return 0, err
	}
	for i := 0; i < p; i++ {
		grad[i] = (scr.vals[2*i] - scr.vals[2*i+1]) / 2
	}
	return 2 * p, nil
}

// GradientDescentBatch is GradientDescent driven through a
// BatchEvaluator: each iteration issues one batch of the 2P shifted
// points followed by one single-point batch for the post-update cost.
// GradientDescent is this loop over Batch(eval).
func GradientDescentBatch(eval BatchEvaluator, initial []float64, o Options) (Result, error) {
	if err := o.validate(len(initial)); err != nil {
		return Result{}, err
	}
	params := append([]float64(nil), initial...)
	var res Result
	grad := make([]float64, len(params))
	var scr batchScratch
	for iter := 0; iter < o.Iterations; iter++ {
		n, err := shiftGradientBatch(eval, params, o.ShiftScale, grad, &scr)
		res.Evaluations += n
		if err != nil {
			return res, err
		}
		for i := range params {
			params[i] -= o.LearningRate * grad[i]
		}
		copy(scr.oneData, params)
		if err := eval(scr.oneSet, scr.oneVal); err != nil {
			return res, err
		}
		res.Evaluations++
		res.History = append(res.History, scr.oneVal[0])
	}
	res.Params = params
	return res, nil
}
