// MaxCut: solve a MaxCut instance end to end with QAOA on Qtenon,
// then read the best cut out of the final measurement distribution —
// the full workflow of the paper's §2.1 motivating application.
package main

import (
	"fmt"
	"log"
	"qtenon/internal/rng"

	"qtenon/internal/circuit"
	"qtenon/internal/host"
	"qtenon/internal/opt"
	"qtenon/internal/pauli"
	"qtenon/internal/qsim"
	"qtenon/internal/system"
	"qtenon/internal/vqa"
)

func main() {
	const n = 10
	w, err := vqa.NewQAOA(n, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MaxCut on %d vertices, %d edges, 3 QAOA layers\n", n, len(w.Edges))

	// Optimize the 6 parameters on the Qtenon system with gradient
	// descent (parameter-shift rule).
	cfg := system.DefaultConfig(host.BoomL())
	cfg.Shots = 400
	sys, err := system.New(cfg, w)
	if err != nil {
		log.Fatal(err)
	}
	o := opt.DefaultOptions()
	o.Iterations = 8
	o.LearningRate = 0.15
	res, err := opt.GradientDescent(sys.Evaluate, w.InitialParams, o)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimized cost trajectory: %.3f → %.3f over %d evaluations\n",
		res.History[0], res.History[len(res.History)-1], res.Evaluations)
	fmt.Println("system time:", sys.Result().Breakdown)

	// Extract the best cut: sample the final circuit exactly and keep the
	// best observed assignment.
	bound := w.Circuit.Bind(res.Params)
	st, err := qsim.Run(bound)
	if err != nil {
		log.Fatal(err)
	}
	samples := st.Sample(2000, rng.NewStream(7))
	best, bestCut := uint64(0), -1
	for _, s := range samples {
		if c := pauli.CutValue(w.Edges, s); c > bestCut {
			best, bestCut = s, c
		}
	}
	fmt.Printf("best sampled cut: %d edges with partition %0*b\n", bestCut, n, best)

	// Brute-force optimum for reference (10 vertices → 1024 assignments).
	optCut := 0
	for a := uint64(0); a < 1<<n; a++ {
		if c := pauli.CutValue(w.Edges, a); c > optCut {
			optCut = c
		}
	}
	fmt.Printf("exact optimum: %d edges — QAOA found %.0f%% of it\n",
		optCut, 100*float64(bestCut)/float64(optCut))
	_ = circuit.Pi
}
