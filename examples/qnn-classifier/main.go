// QNN classifier: train a small quantum neural network (the paper's
// hardware-efficient RY+CZ ansatz) to separate two synthetic classes,
// running every training evaluation through the Qtenon system so the
// architecture's incremental-compilation path is exercised by a real
// learning loop.
package main

import (
	"fmt"
	"log"
	"math"

	"qtenon/internal/circuit"
	"qtenon/internal/host"
	"qtenon/internal/opt"
	"qtenon/internal/qsim"
	"qtenon/internal/system"
	"qtenon/internal/vqa"
)

// The task: inputs are angles encoded on 4 qubits; class A points have
// small angles, class B large ones. The network must push qubit 0's ⟨Z⟩
// toward +1 for A and −1 for B.
func main() {
	const n = 4
	train := []struct {
		features [n]float64
		label    float64
	}{
		{[n]float64{0.2, 0.1, 0.3, 0.2}, +1},
		{[n]float64{0.3, 0.2, 0.1, 0.3}, +1},
		{[n]float64{2.8, 2.9, 2.7, 3.0}, -1},
		{[n]float64{2.9, 2.7, 3.0, 2.8}, -1},
	}

	// Trainable tail: 2 layers of RY + CZ (the paper's QNN ansatz); the
	// feature layer is rebuilt per sample.
	buildNet := func(features [n]float64) *circuit.Circuit {
		b := circuit.NewBuilder(n)
		for q := 0; q < n; q++ {
			b.RY(q, features[q])
		}
		p := 0
		for l := 0; l < 2; l++ {
			for q := 0; q < n; q++ {
				b.RYP(q, p)
				p++
			}
			b.CZ(0, 1).CZ(2, 3).CZ(1, 2)
		}
		b.MeasureAll()
		return b.MustBuild()
	}

	// Wrap each sample's circuit in a Qtenon system once; evaluations
	// reuse the loaded program through q_update.
	type sampleSys struct {
		sys   *system.System
		label float64
	}
	var systems []sampleSys
	for _, s := range train {
		w := &vqa.Workload{
			Kind:    vqa.QNN,
			Name:    "qnn-sample",
			Circuit: buildNet(s.features),
			Cost: func(outcomes []uint64) float64 {
				var z float64
				for _, o := range outcomes {
					if o&1 == 0 {
						z++
					} else {
						z--
					}
				}
				return z / float64(len(outcomes))
			},
			InitialParams: make([]float64, 2*n),
		}
		cfg := system.DefaultConfig(host.BoomL())
		cfg.Shots = 300
		sys, err := system.New(cfg, w)
		if err != nil {
			log.Fatal(err)
		}
		systems = append(systems, sampleSys{sys, s.label})
	}

	// Mean-squared-error loss over the training set.
	loss := func(params []float64) (float64, error) {
		var total float64
		for _, s := range systems {
			z, err := s.sys.Evaluate(params)
			if err != nil {
				return 0, err
			}
			d := z - s.label
			total += float64(d * d)
		}
		return total / float64(len(systems)), nil
	}

	o := opt.DefaultOptions()
	o.Iterations = 12
	o.SPSAa = 0.6
	res, err := opt.SPSA(loss, make([]float64, 2*n), o)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("training loss: %.4f → %.4f over %d iterations\n",
		res.History[0], res.History[len(res.History)-1], o.Iterations)

	// Report per-sample predictions with the exact simulator.
	correct := 0
	for i, s := range train {
		st, err := qsim.Run(buildNet(s.features).Bind(res.Params))
		if err != nil {
			log.Fatal(err)
		}
		z := st.ExpectationZ(0)
		pred := math.Copysign(1, z)
		ok := (z >= 0) == (s.label > 0)
		if ok {
			correct++
		}
		fmt.Printf("sample %d: ⟨Z0⟩ = %+.3f → class %+.0f (want %+.0f) %v\n",
			i, z, pred, s.label, ok)
	}
	fmt.Printf("accuracy: %d/%d\n", correct, len(train))
	fmt.Println("\narchitecture accounting for sample 0:", systems[0].sys.Result().Breakdown)
}
