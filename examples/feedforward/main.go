// Feed-forward: quantum teleportation with mid-circuit measurement and
// classically controlled corrections — the capability class (QubiC-2.0
// style mid-circuit measurement + feed-forward) that motivates
// low-latency quantum-classical integration in the first place: the
// correction must be computed and applied within the qubit's coherence
// window, so the classical path latency is on the physics' critical
// path.
package main

import (
	"fmt"
	"log"
	"math"

	"qtenon/internal/circuit"
	"qtenon/internal/qsim"
	"qtenon/internal/rng"
	"qtenon/internal/sim"
)

func main() {
	rng := rng.NewStream(42)
	theta, phi := 1.0472, 0.7854 // the payload state |ψ⟩ = RZ(φ)RY(θ)|0⟩

	fmt.Printf("teleporting |ψ⟩ = RZ(%.4f)·RY(%.4f)|0⟩ from q0 to q2\n\n", phi, theta)

	// Reference copy for fidelity checks.
	ref, err := qsim.Run(circuit.NewBuilder(1).RY(0, theta).RZ(0, phi).MustBuild())
	if err != nil {
		log.Fatal(err)
	}

	counts := map[[2]int]int{}
	const trials = 1000
	for i := 0; i < trials; i++ {
		pre := circuit.NewBuilder(3).
			RY(0, theta).RZ(0, phi). // payload
			H(1).CX(1, 2).           // Bell resource
			CX(0, 1).H(0).           // Bell-basis change
			Measure(0).Measure(1).
			MustBuild()
		tr, err := qsim.RunTrajectory(pre, rng)
		if err != nil {
			log.Fatal(err)
		}
		counts[[2]int{tr.Bit(0), tr.Bit(1)}]++

		// Feed-forward: X^m1 then Z^m0 on the receiver qubit.
		if tr.Bit(1) == 1 {
			tr.Final.Apply(circuit.Gate{Kind: circuit.X, Qubit: 2, Param: circuit.NoParam})
		}
		if tr.Bit(0) == 1 {
			tr.Final.Apply(circuit.Gate{Kind: circuit.Z, Qubit: 2, Param: circuit.NoParam})
		}
		gotZ := tr.Final.ExpectationZ(2)
		if math.Abs(gotZ-ref.ExpectationZ(0)) > 1e-9 {
			log.Fatalf("trial %d: teleportation failed, ⟨Z⟩=%v want %v", i, gotZ, ref.ExpectationZ(0))
		}
	}
	fmt.Println("1000/1000 trials teleported exactly; Bell-measurement statistics:")
	for _, k := range [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
		fmt.Printf("  m0=%d m1=%d: %4d (%.1f%%)\n", k[0], k[1], counts[k], 100*float64(counts[k])/trials)
	}

	// Why latency matters: the correction window. A transmon's T2 is
	// ~100 µs; the classical path from measurement to conditional pulse
	// must fit well inside it.
	fmt.Println("\nfeed-forward latency budget (per correction):")
	rows := []struct {
		path string
		lat  sim.Time
	}{
		{"decoupled: readout → host over UDP → decision → pulse cmd back", 2 * 8 * sim.Microsecond},
		{"Qtenon: readout → .measure → barrier query + q_update (RoCC)", 2 * sim.Nanosecond},
	}
	const t2 = 100 * sim.Microsecond
	for _, r := range rows {
		fmt.Printf("  %-62s %8v  (%.3f%% of T2)\n", r.path, r.lat, 100*float64(r.lat)/float64(t2))
	}
	fmt.Println("\nthe decoupled round trip burns a sixth of the coherence budget per")
	fmt.Println("correction; the tightly coupled path is negligible — the paper's")
	fmt.Println("low-latency integration argument, stated in physics terms.")
}
