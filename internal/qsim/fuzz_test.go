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

// FuzzSignSweepMatchesFrozen holds applySignTermsChunk's sweep to the
// frozen stride loops (frozen_test.go) on raw bits, zero and NaN signs
// included: 1–100 terms with sA ≤ sB on bits 0–23 and any lut,
// single-bit terms among them, on a chunk of 2^0–2^16 amplitudes at a
// random aligned base, with and without im. The values mix ±0, ±Inf, NaN, subnormals and
// random bit patterns.
func FuzzSignSweepMatchesFrozen(f *testing.F) {
	f.Add(int64(1), uint8(11), uint8(12), false)
	f.Add(int64(2), uint8(23), uint8(16), true)
	f.Add(int64(3), uint8(1), uint8(0), true)
	f.Add(int64(4), uint8(4), uint8(5), false)
	f.Add(int64(5), uint8(99), uint8(7), true)
	f.Add(int64(6), uint8(40), uint8(3), false)
	f.Fuzz(func(t *testing.T, seed int64, nterms, logn uint8, withIm bool) {
		rng := rand.New(rand.NewSource(seed))
		k := int(logn) % 17
		n := 1 << k
		terms := make([]signTerm, 1+int(nterms)%100)
		for i := range terms {
			a, b := uint(rng.Intn(24)), uint(rng.Intn(24))
			if rng.Intn(4) == 0 {
				b = a
			}
			terms[i] = signTerm{sA: min(a, b), sB: max(a, b), lut: uint8(rng.Intn(16))}
		}
		base := rng.Intn(1<<24) &^ (n - 1)
		re := fuzzValues(rng, n)
		wantRe := append([]float64(nil), re...)
		var im, wantIm []float64
		if withIm {
			im = fuzzValues(rng, n)
			wantIm = append([]float64(nil), im...)
		}
		applySignTermsChunk(re, im, terms, base)
		frozenApplySignTermsChunk(wantRe, wantIm, terms, base)
		for i := range re {
			if math.Float64bits(re[i]) != math.Float64bits(wantRe[i]) {
				t.Fatalf("n=%d base=%#x %d terms: re[%d] = %#x, frozen %#x", n, base, len(terms), i,
					math.Float64bits(re[i]), math.Float64bits(wantRe[i]))
			}
			if withIm && math.Float64bits(im[i]) != math.Float64bits(wantIm[i]) {
				t.Fatalf("n=%d base=%#x %d terms: im[%d] = %#x, frozen %#x", n, base, len(terms), i,
					math.Float64bits(im[i]), math.Float64bits(wantIm[i]))
			}
		}
	})
}

// fuzzValues returns n floats: ±0, ±Inf, NaN, subnormals, random bit
// patterns and ordinary values.
func fuzzValues(rng *rand.Rand, n int) []float64 {
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030}
	v := make([]float64, n)
	for i := range v {
		switch rng.Intn(4) {
		case 0:
			v[i] = special[rng.Intn(len(special))]
		case 1:
			v[i] = math.Float64frombits(rng.Uint64())
		default:
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

// FuzzAliasTableMatchesFrozen holds aliasTable.build to the frozen
// table build (newFrozenTable) on 1–2^13 weights: zeros, subnormals,
// one-hot, uniform, all-zero and random. The prob bits and the aliases
// must be equal.
func FuzzAliasTableMatchesFrozen(f *testing.F) {
	for kind := uint8(0); kind < 6; kind++ {
		f.Add(int64(kind), uint16(4096), kind)
	}
	f.Add(int64(7), uint16(1), uint8(5))
	f.Add(int64(8), uint16(8191), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, size uint16, kind uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(size)%(1<<13)
		p := make([]float64, n)
		switch kind % 6 {
		case 0: // random, a fifth of them zero
			for i := range p {
				if rng.Intn(5) != 0 {
					p[i] = rng.Float64()
				}
			}
		case 1: // subnormals and zeros
			for i := range p {
				p[i] = math.SmallestNonzeroFloat64 * float64(rng.Intn(4))
			}
		case 2: // one-hot
			p[rng.Intn(n)] = 1
		case 3: // uniform
			for i := range p {
				p[i] = 1 / float64(n)
			}
		case 4: // all zero
		default: // squared amplitudes of a random state, spread over decades
			for i := range p {
				a := rng.NormFloat64() * math.Pow(10, -float64(rng.Intn(8)))
				p[i] = a * a
			}
		}
		want := newFrozenTable(p, &frozenScratch{}, nil)
		total := par.SumFloat64(n, func(lo, hi int) float64 {
			var t float64
			for _, v := range p[lo:hi] {
				t += v
			}
			return t
		})
		var got aliasTable
		got.build(append([]float64(nil), p...), total, &aliasScratch{})
		for i := range p {
			if math.Float64bits(got.prob[i]) != math.Float64bits(want.prob[i]) || got.alias[i] != want.alias[i] {
				t.Fatalf("n=%d kind=%d: slot %d = (%v, %d), frozen (%v, %d)", n, kind%6, i,
					got.prob[i], got.alias[i], want.prob[i], want.alias[i])
			}
		}
	})
}
