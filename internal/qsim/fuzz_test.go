package qsim

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"qtenon/internal/circuit"
	"qtenon/internal/par"
)

// FuzzFusedSoAMatchesReference drives the full SoA pipeline — fusion,
// cache-blocked tiling, sign/phase term splitting, parallel sweeps —
// against the naive serial complex128 reference on random circuits, and
// checks that fixed-seed sampling is identical across worker counts. A
// circuit is a random mix or real gates only, whose leading ops Run
// executes over re alone. The seed-derived generator keeps every input
// valid; the fuzzer explores circuit shapes through the (seed, qubits,
// gates) triple.
func FuzzFusedSoAMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(40))
	f.Add(int64(2), uint8(2), uint8(5))
	f.Add(int64(3), uint8(13), uint8(60))  // beyond one 2^12-amp tile
	f.Add(int64(4), uint8(14), uint8(120)) // multiple par chunks
	f.Add(int64(5), uint8(9), uint8(1))
	f.Add(int64(6), uint8(11), uint8(80))
	f.Add(int64(8), uint8(12), uint8(110)) // real gates on 14 qubits: every real-prefix kernel
	f.Fuzz(func(t *testing.T, seed int64, nq, gates uint8) {
		n := 2 + int(nq)%13      // 2..14 qubits
		ng := 1 + int(gates)%120 // 1..120 gates
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(rng, n, ng)
		if rng.Intn(2) == 1 {
			c.Gates = realGates(rng, n, ng)
		}

		par.SetWorkers(4)
		defer par.SetWorkers(0)
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
				t.Fatalf("amp[%d] = %v, reference %v (seed=%d n=%d gates=%d)", i, a, ref[i], seed, n, ng)
			}
		}

		// Fixed-seed sampling must not depend on the worker count.
		want := got.Clone().Sample(256, rand.New(rand.NewSource(seed)))
		par.SetWorkers(1)
		for i, v := range got.Clone().Sample(256, rand.New(rand.NewSource(seed))) {
			if v != want[i] {
				t.Fatalf("sample %d = %d at workers=1, want %d", i, v, want[i])
			}
		}
	})
}

// FuzzEngineMatchesFrozen checks the one gate path and the one sampler
// against the frozen references (frozen_test.go). A random gate list,
// with the angles 0, ±π and π/2 mixed in, runs through State.Apply and
// through the frozen whole-array kernels; the amplitudes must be the
// same bits, each compared as x+0 because the kernels may differ in the
// signs of zeros (DESIGN.md §11.2). The state is then sampled through
// the shared sampler and through the frozen dense sampler at one seed,
// and the same circuit, run on a sharded state of at least two shards,
// through the shared sampler and the frozen two-level sampler; the
// outcome words must be equal. Inputs cover 1–14 qubits, every shard
// size that leaves two or more shards, the shot counts around the
// 4096-shot block, and 1–3 workers.
func FuzzEngineMatchesFrozen(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(20), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(3), uint8(40), uint8(1), uint8(1), uint8(1))
	f.Add(int64(3), uint8(12), uint8(59), uint8(2), uint8(5), uint8(2))
	f.Add(int64(4), uint8(13), uint8(60), uint8(3), uint8(11), uint8(0))
	f.Add(int64(5), uint8(8), uint8(30), uint8(4), uint8(2), uint8(1))
	f.Add(int64(6), uint8(10), uint8(50), uint8(5), uint8(9), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nq, gates, shotSel, bits, workers uint8) {
		n := 1 + int(nq)%14     // 1..14 qubits
		ng := 1 + int(gates)%60 // 1..60 gates
		shots := []int{1, 63, 4095, 4096, 4097, 9000}[int(shotSel)%6]
		par.SetWorkers(1 + int(workers)%3)
		defer par.SetWorkers(0)
		c := &circuit.Circuit{NQubits: n, Gates: randomGates(rand.New(rand.NewSource(seed)), n, ng)}

		s := NewState(n)
		ref := &frozenState{re: make([]float64, 1<<n), im: make([]float64, 1<<n)}
		ref.re[0] = 1
		for _, g := range c.Gates {
			s.Apply(g)
			ref.Apply(g)
		}
		re, im := s.ReIm()
		for i := range re {
			if math.Float64bits(re[i]+0) != math.Float64bits(ref.re[i]+0) ||
				math.Float64bits(im[i]+0) != math.Float64bits(ref.im[i]+0) {
				t.Fatalf("n=%d: amp[%d] = (%g,%g), frozen kernels (%g,%g)", n, i, re[i], im[i], ref.re[i], ref.im[i])
			}
		}
		requireSameWords(t, "dense", s.Sample(shots, rand.New(rand.NewSource(seed))),
			ref.Sample(shots, rand.New(rand.NewSource(seed))))

		if n < 2 {
			return
		}
		k := 1 + int(bits)%(n-1) // 1..n-1 shard bits: at least two shards
		sh, err := NewShardedBits(n, k)
		if err != nil {
			t.Fatal(err)
		}
		if err := sh.Run(c); err != nil {
			t.Fatal(err)
		}
		frozen := &frozenSharded{shardBits: k, re: sh.re, im: sh.im}
		requireSameWords(t, fmt.Sprintf("sharded n=%d k=%d", n, k), sh.Sample(shots, rand.New(rand.NewSource(seed))),
			frozen.Sample(shots, rand.New(rand.NewSource(seed))))
	})
}

// randomGates draws a valid bound gate list over n ≥ 1 qubits (only
// one-qubit gates when n is 1). A third of the angles are 0, ±π or π/2,
// which make exactly-real, exactly-diagonal and exactly-±1 matrices.
func randomGates(rng *rand.Rand, n, count int) []circuit.Gate {
	kinds := []circuit.Kind{
		circuit.I, circuit.X, circuit.Y, circuit.Z, circuit.H, circuit.S, circuit.T,
		circuit.RX, circuit.RY, circuit.RZ, circuit.CZ, circuit.CX, circuit.RZZ,
	}
	special := []float64{0, math.Pi, -math.Pi, math.Pi / 2}
	gates := make([]circuit.Gate, count)
	for i := range gates {
		k := kinds[rng.Intn(len(kinds))]
		for n == 1 && k.Arity() == 2 {
			k = kinds[rng.Intn(len(kinds))]
		}
		g := circuit.Gate{Kind: k, Qubit: rng.Intn(n), Theta: rng.NormFloat64() * 2, Param: circuit.NoParam}
		if rng.Intn(3) == 0 {
			g.Theta = special[rng.Intn(len(special))]
		}
		if k.Arity() == 2 {
			g.Qubit2 = (g.Qubit + 1 + rng.Intn(n-1)) % n
		}
		gates[i] = g
	}
	return gates
}

// realGates draws count gates that keep a real state real: randomGates'
// draw with Y, S and T made X, Z and Z, and RX, RZ and RZZ at angle 0.
func realGates(rng *rand.Rand, n, count int) []circuit.Gate {
	gates := randomGates(rng, n, count)
	for i := range gates {
		switch g := &gates[i]; g.Kind {
		case circuit.Y:
			g.Kind = circuit.X
		case circuit.S, circuit.T:
			g.Kind = circuit.Z
		case circuit.RX, circuit.RZ, circuit.RZZ:
			g.Theta = 0
		}
	}
	return gates
}

func requireSameWords(t *testing.T, label string, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outcomes, frozen sampler %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: outcome %d of %d = %#x, frozen sampler %#x", label, i, len(want), got[i], want[i])
		}
	}
}
