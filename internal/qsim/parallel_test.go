package qsim

import (
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"qtenon/internal/circuit"
	"qtenon/internal/par"
	"qtenon/internal/rng"
)

// refApply is the pre-parallel, pre-fusion reference kernel: the naive
// serial gate application the seed repository shipped. The parallel
// engine is validated against it gate for gate.
func refApply(amp []complex128, g circuit.Gate) {
	apply1q := func(q int, u00, u01, u10, u11 complex128) {
		stride := 1 << q
		for base := 0; base < len(amp); base += stride << 1 {
			for i := base; i < base+stride; i++ {
				a0, a1 := amp[i], amp[i+stride]
				amp[i] = u00*a0 + u01*a1
				amp[i+stride] = u10*a0 + u11*a1
			}
		}
	}
	switch g.Kind {
	case circuit.I, circuit.Measure:
	case circuit.CZ:
		ma, mb := 1<<g.Qubit, 1<<g.Qubit2
		for i := range amp {
			if i&ma != 0 && i&mb != 0 {
				amp[i] = -amp[i]
			}
		}
	case circuit.CX:
		mc, mt := 1<<g.Qubit, 1<<g.Qubit2
		for i := range amp {
			if i&mc != 0 && i&mt == 0 {
				j := i | mt
				amp[i], amp[j] = amp[j], amp[i]
			}
		}
	case circuit.RZZ:
		ma, mb := 1<<g.Qubit, 1<<g.Qubit2
		eP := cmplx.Exp(complex(0, -g.Theta/2))
		eM := cmplx.Exp(complex(0, g.Theta/2))
		for i := range amp {
			if (i&ma != 0) == (i&mb != 0) {
				amp[i] *= eP
			} else {
				amp[i] *= eM
			}
		}
	default:
		m, ok := gateMatrix1Q(g)
		if !ok {
			panic("refApply: unsupported gate")
		}
		apply1q(g.Qubit, m[0], m[1], m[2], m[3])
	}
}

// randomCircuit builds a valid bound circuit over n qubits.
func randomCircuit(rng *rand.Rand, n, gates int) *circuit.Circuit {
	kinds := []circuit.Kind{
		circuit.X, circuit.Y, circuit.Z, circuit.H, circuit.S, circuit.T,
		circuit.RX, circuit.RY, circuit.RZ, circuit.CZ, circuit.CX, circuit.RZZ,
	}
	c := &circuit.Circuit{NQubits: n}
	for i := 0; i < gates; i++ {
		k := kinds[rng.Intn(len(kinds))]
		g := circuit.Gate{Kind: k, Qubit: rng.Intn(n), Theta: rng.NormFloat64() * 2, Param: circuit.NoParam}
		if k.Arity() == 2 {
			g.Qubit2 = (g.Qubit + 1 + rng.Intn(n-1)) % n
		}
		c.Gates = append(c.Gates, g)
	}
	return c
}

// Property: the fused, parallel engine matches the serial reference
// within 1e-12 on random circuits over 2–16 qubits.
func TestFusedParallelMatchesSerialReference(t *testing.T) {
	par.SetWorkers(4) // exercise the pool even on single-core machines
	defer par.SetWorkers(0)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15) // 2..16 qubits
		c := randomCircuit(rng, n, 40)

		got, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		ref := make([]complex128, 1<<n)
		ref[0] = 1
		for _, g := range c.Gates {
			refApply(ref, g)
		}
		for i, a := range got.Amplitudes() {
			if cmplx.Abs(a-ref[i]) > 1e-12 {
				t.Logf("seed %d: amp[%d] = %v, ref %v", seed, i, a, ref[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// Property: gate-by-gate Apply (parallel kernels, no fusion) matches the
// reference as well — Apply is the path trajectories and tests use.
func TestApplyMatchesSerialReference(t *testing.T) {
	par.SetWorkers(4)
	defer par.SetWorkers(0)
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(14)
		c := randomCircuit(rng, n, 30)
		s := NewState(n)
		ref := make([]complex128, 1<<n)
		ref[0] = 1
		for _, g := range c.Gates {
			s.Apply(g)
			refApply(ref, g)
		}
		for i, a := range s.Amplitudes() {
			if cmplx.Abs(a-ref[i]) > 1e-12 {
				t.Fatalf("trial %d: amp[%d] = %v, ref %v", trial, i, a, ref[i])
			}
		}
	}
}

// bigState returns a state wide enough that every parallel path engages.
func bigState(t *testing.T) *State {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	c := randomCircuit(rng, 15, 60)
	s, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Fixed-seed sampling and expectation values must be identical at any
// GOMAXPROCS / worker-count setting.
func TestSampleDeterministicAcrossWorkerCounts(t *testing.T) {
	s := bigState(t)
	run := func(workers int) ([]uint64, float64, float64) {
		par.SetWorkers(workers)
		defer par.SetWorkers(0)
		c := s.Clone() // a clone builds its alias table under this worker count
		return c.Sample(10000, rand.New(rand.NewSource(99))), c.ExpectationZ(3), c.ExpectationZZ(0, 11)
	}
	wantSamples, wantZ, wantZZ := run(1)
	for _, w := range []int{2, 4, 8} {
		samples, z, zz := run(w)
		if z != wantZ || zz != wantZZ {
			t.Fatalf("workers=%d: expectations differ: (%v,%v) vs (%v,%v)", w, z, zz, wantZ, wantZZ)
		}
		for i := range samples {
			if samples[i] != wantSamples[i] {
				t.Fatalf("workers=%d: sample %d = %d, want %d", w, i, samples[i], wantSamples[i])
			}
		}
	}

	// And across actual GOMAXPROCS changes.
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, p := range []int{1, 4} {
		runtime.GOMAXPROCS(p)
		c := s.Clone()
		samples := c.Sample(10000, rand.New(rand.NewSource(99)))
		for i := range samples {
			if samples[i] != wantSamples[i] {
				t.Fatalf("GOMAXPROCS=%d: sample %d = %d, want %d", p, i, samples[i], wantSamples[i])
			}
		}
	}
}

// Every Sample draws from the state as it is at the call: the sampler
// rebuilds its tables each time, so a draw follows Apply and
// MeasureQubit.
func TestSampleFollowsMutations(t *testing.T) {
	s := NewState(3) // |000⟩
	src := rng.NewStream(1)
	requireAll := func(want uint64, state string) {
		t.Helper()
		for _, v := range s.Sample(100, src) {
			if v != want {
				t.Fatalf("sampled %03b from %s", v, state)
			}
		}
	}
	requireAll(0, "|000⟩")
	s.Apply(circuit.Gate{Kind: circuit.X, Qubit: 1, Param: circuit.NoParam})
	requireAll(2, "|010⟩")
	s.Apply(circuit.Gate{Kind: circuit.H, Qubit: 0, Param: circuit.NoParam})
	bit := s.MeasureQubit(0, src)
	requireAll(2|uint64(bit), "the collapsed state")
}

// The alias sampler must reproduce the distribution (statistically).
func TestAliasSamplerDistribution(t *testing.T) {
	s := NewState(2)
	s.Apply(circuit.Gate{Kind: circuit.RY, Qubit: 0, Theta: 1.1, Param: circuit.NoParam})
	s.Apply(circuit.Gate{Kind: circuit.RY, Qubit: 1, Theta: 2.3, Param: circuit.NoParam})
	p := s.Probabilities()
	shots := 200000
	counts := make([]int, 4)
	for _, v := range s.Sample(shots, rand.New(rand.NewSource(5))) {
		counts[v]++
	}
	for i, c := range counts {
		frac := float64(c) / float64(shots)
		if math.Abs(frac-p[i]) > 0.01 {
			t.Errorf("outcome %d: sampled %.4f, want %.4f", i, frac, p[i])
		}
	}
}

// Fusion must also hold for the structured ansätze the benchmarks run —
// QAOA-shaped layers exercise the diagonal batching path hardest.
func TestFusionOnStructuredCircuit(t *testing.T) {
	b := circuit.NewBuilder(6)
	for q := 0; q < 6; q++ {
		b.H(q)
	}
	for l := 0; l < 3; l++ {
		for q := 0; q < 6; q++ {
			b.RZZ(q, (q+1)%6, 0.3+0.1*float64(l))
		}
		for q := 0; q < 6; q++ {
			b.RX(q, 0.7-0.05*float64(l))
		}
	}
	for q := 0; q < 5; q++ {
		b.CX(q, q+1)
	}
	for q := 0; q < 6; q++ {
		b.RZ(q, 0.2*float64(q))
		b.T(q)
	}
	c := b.MustBuild()
	got, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]complex128, 1<<6)
	ref[0] = 1
	for _, g := range c.Gates {
		refApply(ref, g)
	}
	for i, a := range got.Amplitudes() {
		if cmplx.Abs(a-ref[i]) > 1e-12 {
			t.Fatalf("amp[%d] = %v, ref %v", i, a, ref[i])
		}
	}
}
