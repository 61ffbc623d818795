package opt

import "math"

// Adam minimizes eval with the Adam update rule over parameter-shift
// gradients — an extension beyond the paper's GD/SPSA pair, included
// because it is the optimizer most VQA software stacks reach for. Its
// evaluation pattern matches GD (2P+1 per iteration), so its
// architecture traffic is GD-shaped; only the host-side update differs.
func Adam(eval Evaluator, initial []float64, o Options) (Result, error) {
	return AdamBatch(Batch(eval), initial, o)
}

// AdamBatch is Adam driven through a BatchEvaluator, with the same
// batch shape as GradientDescentBatch.
func AdamBatch(eval BatchEvaluator, initial []float64, o Options) (Result, error) {
	if err := o.validate(len(initial)); err != nil {
		return Result{}, err
	}
	const (
		beta1 = 0.9
		beta2 = 0.999
		eps   = 1e-8
	)
	params := append([]float64(nil), initial...)
	m := make([]float64, len(params))
	v := make([]float64, len(params))
	grad := make([]float64, len(params))
	var res Result
	var scr batchScratch
	for iter := 1; iter <= o.Iterations; iter++ {
		n, err := shiftGradientBatch(eval, params, o.ShiftScale, grad, &scr)
		res.Evaluations += n
		if err != nil {
			return res, err
		}
		b1t := 1 - math.Pow(beta1, float64(iter))
		b2t := 1 - math.Pow(beta2, float64(iter))
		for i := range params {
			m[i] = beta1*m[i] + (1-beta1)*grad[i]
			v[i] = beta2*v[i] + (1-beta2)*grad[i]*grad[i]
			mh := m[i] / b1t
			vh := v[i] / b2t
			params[i] -= o.LearningRate * mh / (math.Sqrt(vh) + eps)
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
