// VQE on molecular hydrogen: find the ground-state energy of the H2
// Hamiltonian (STO-3G, equilibrium geometry) with a 2-qubit ansatz,
// using the full measurement-basis-grouping pipeline — the chemistry
// workflow the paper's VQE benchmark abstracts.
package main

import (
	"fmt"
	"log"
	"qtenon/internal/rng"

	"qtenon/internal/circuit"
	"qtenon/internal/opt"
	"qtenon/internal/pauli"
	"qtenon/internal/qsim"
)

func main() {
	h := pauli.H2Equilibrium()
	fmt.Printf("H2 Hamiltonian: %d Pauli terms + offset %.4f\n", len(h.Terms), h.Offset)

	groups := h.GroupTerms()
	fmt.Printf("measurement groups (qubit-wise commuting): %d\n", len(groups))

	// Hardware-efficient 2-qubit ansatz: RY ⊗ RY · CX · RY ⊗ RY.
	ansatz := circuit.NewBuilder(2).
		RYP(0, 0).RYP(1, 1).CX(0, 1).RYP(0, 2).RYP(1, 3).
		MustBuild()

	rng := rng.NewStream(11)
	const shots = 4000
	// The evaluator estimates ⟨H⟩ from grouped shot counts, exactly how a
	// real device measures a molecular Hamiltonian.
	eval := func(params []float64) (float64, error) {
		bound := ansatz.Bind(params)
		outcomes := make([][]uint64, len(groups))
		for gi, g := range groups {
			c := bound.Clone()
			c.Gates = append(c.Gates, g.BasisChange()...)
			st, err := qsim.Run(c)
			if err != nil {
				return 0, err
			}
			outcomes[gi] = st.Sample(shots, rng)
		}
		return h.EstimateFromGroupCounts(groups, outcomes), nil
	}

	o := opt.DefaultOptions()
	o.Iterations = 30
	o.LearningRate = 0.2
	res, err := opt.GradientDescent(eval, []float64{0.1, -0.1, 0.05, 0.1}, o)
	if err != nil {
		log.Fatal(err)
	}
	final := res.History[len(res.History)-1]
	fmt.Printf("VQE energy after %d iterations (%d evaluations): %.4f Hartree\n",
		o.Iterations, res.Evaluations, final)
	fmt.Println("reference ground-state energy ≈ -1.851 Hartree")

	// Exact check of the optimized state.
	st, err := qsim.Run(ansatz.Bind(res.Params))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact ⟨H⟩ at optimized parameters: %.4f Hartree\n", h.Expectation(st))
}
