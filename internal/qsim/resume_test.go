package qsim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"qtenon/internal/circuit"
	"qtenon/internal/par"
	qrng "qtenon/internal/rng"
)

// vqeCircuit binds the ansatz vqa.NewVQE builds at three layers (qsim
// cannot import vqa): per layer, RY on every qubit, then CZ on the even
// pairs and on the odd pairs.
func vqeCircuit(n int, params []float64) *circuit.Circuit {
	b := circuit.NewBuilder(n)
	for l := 0; l < 3; l++ {
		for q := 0; q < n; q++ {
			b.RY(q, params[l*n+q])
		}
		for q := 0; q+1 < n; q += 2 {
			b.CZ(q, q+1)
		}
		for q := 1; q+1 < n; q += 2 {
			b.CZ(q, q+1)
		}
	}
	return b.MustBuild()
}

// shiftIteration returns one gradient-descent iteration of the VQE
// ansatz in the optimizer's order: every parameter shifted by +π/2 and
// then −π/2, [+0, −0, +1, −1, …], then the updated point, where every
// parameter moves.
func shiftIteration(n int) []*circuit.Circuit {
	params := make([]float64, 3*n)
	for i := range params {
		params[i] = 0.2 + float64(0.03*float64(i%7))
	}
	var cs []*circuit.Circuit
	for j := range params {
		for _, shift := range []float64{math.Pi / 2, -math.Pi / 2} {
			p := slices.Clone(params)
			p[j] += shift
			cs = append(cs, vqeCircuit(n, p))
		}
	}
	for i := range params {
		params[i] -= 0.01
	}
	return append(cs, vqeCircuit(n, params))
}

// requireSameBits demands the raw amplitude bits of two states, zero
// signs included.
func requireSameBits(t *testing.T, label string, got, want *State) {
	t.Helper()
	for i := range want.re {
		if math.Float64bits(got.re[i]) != math.Float64bits(want.re[i]) ||
			math.Float64bits(got.im[i]) != math.Float64bits(want.im[i]) {
			t.Fatalf("%s: amp[%d] = (%g,%g), fresh Run (%g,%g)", label, i, got.re[i], got.im[i], want.re[i], want.im[i])
		}
	}
}

// TestParameterShiftResumes runs one GD iteration of the 12-qubit VQE
// through one State. Each shifted parameter after the first layer
// resumes from the checkpoint: 46 of the 73 Runs, each with the bits of
// a fresh State. A failed Run leaves no checkpoint behind.
func TestParameterShiftResumes(t *testing.T) {
	seq := shiftIteration(12)
	s := NewState(12)
	resumed := 0
	for i, c := range seq {
		if err := s.Run(c); err != nil {
			t.Fatal(err)
		}
		if s.ran < len(s.runs[s.cur].ops)-s.runs[s.cur].pre {
			resumed++
		}
		fresh := NewState(12)
		if err := fresh.Run(c); err != nil {
			t.Fatal(err)
		}
		requireSameBits(t, fmt.Sprintf("Run %d", i), s, fresh)
		if i == len(seq)-2 {
			if s.ckAt == 0 {
				t.Fatal("no checkpoint after the last shifted Run")
			}
			if err := s.Run(&circuit.Circuit{NQubits: 11}); err == nil {
				t.Fatal("Run accepted an 11-qubit circuit on a 12-qubit state")
			}
			if s.ckAt != 0 {
				t.Fatalf("failed Run left a checkpoint at op %d", s.ckAt)
			}
		}
	}
	if resumed != 46 {
		t.Fatalf("%d of 73 Runs resumed, want 46", resumed)
	}
}

// TestSPSANeverCheckpoints drives a State with an SPSA-style sequence,
// every parameter moving on every Run. No Run shares an op with the one
// before it, so the checkpoint is never allocated.
func TestSPSANeverCheckpoints(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	params := make([]float64, 3*12)
	s := NewState(12)
	for i := 0; i < 40; i++ {
		for j := range params {
			params[j] += 0.1 * float64(2*rng.Intn(2)-1)
		}
		if err := s.Run(vqeCircuit(12, params)); err != nil {
			t.Fatal(err)
		}
	}
	if s.ckRe != nil || s.ckIm != nil || s.ckAt != 0 {
		t.Fatalf("SPSA sequence allocated a checkpoint (ckAt %d)", s.ckAt)
	}
}

// frozenRun is the reference for the product-prefix build: it runs the
// compiled program's prefix op by op through the frozen whole-array 1q
// kernel (frozen_test.go) on |0…0⟩, and the other ops through the
// executor on one chunk.
func frozenRun(c *circuit.Circuit) *frozenState {
	var p program
	p.compile(c.Gates)
	n := c.NQubits
	ref := &frozenState{re: make([]float64, 1<<n), im: make([]float64, 1<<n)}
	ref.re[0] = 1
	for _, op := range p.ops[:p.pre] {
		ref.apply1Q(op.q, op.u[0], op.u[1], op.u[2], op.u[3])
	}
	p.run([][]float64{ref.re}, [][]float64{ref.im}, n, true, p.pre, len(p.ops))
	return ref
}

// rotationLayer draws a leading layer of 1q gates, one per qubit in a
// random order, so the product prefix covers the qubits in any order.
func rotationLayer(rng *rand.Rand, n int) []circuit.Gate {
	kinds := []circuit.Kind{circuit.RX, circuit.RY, circuit.RY, circuit.H, circuit.X, circuit.RZ}
	special := []float64{0, math.Pi, -math.Pi, math.Pi / 2}
	gates := make([]circuit.Gate, 0, n)
	for _, q := range rng.Perm(n) {
		g := circuit.Gate{Kind: kinds[rng.Intn(len(kinds))], Qubit: q, Theta: rng.NormFloat64() * 2, Param: circuit.NoParam}
		if rng.Intn(4) == 0 {
			g.Theta = special[rng.Intn(len(special))]
		}
		gates = append(gates, g)
	}
	return gates
}

// FuzzRunResumeMatchesFresh walks one recycled State through a random
// sequence of Runs: a random circuit with a leading rotation layer, and
// before each Run a move that changes the angle of one gate, several,
// none or all (a gate without an angle ignores it), or draws a
// different circuit of the same width. Apply,
// MeasureQubit and Sample calls between Runs change the live state but
// not the checkpoint, and the worker count varies from 1 to 3. After
// each Run the raw amplitude bits must equal a fresh State's. The last
// circuit then runs on the dense State and on a sharded state whose
// shards are smaller than the register, so its prefix spans global
// qubits, and both must equal, as x+0 bits, the frozen kernels running
// the prefix op by op.
func FuzzRunResumeMatchesFresh(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(20), uint8(12), uint8(1))
	f.Add(int64(2), uint8(0), uint8(5), uint8(6), uint8(0))
	f.Add(int64(3), uint8(11), uint8(40), uint8(15), uint8(5))
	f.Add(int64(4), uint8(12), uint8(59), uint8(9), uint8(9))
	f.Add(int64(5), uint8(13), uint8(30), uint8(14), uint8(11))
	f.Add(int64(6), uint8(7), uint8(50), uint8(3), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nq, gates, steps, bits uint8) {
		n := 1 + int(nq)%14     // 1..14 qubits: one tile up to 12, several above
		ng := 1 + int(gates)%60 // gates after the rotation layer
		rng := rand.New(rand.NewSource(seed))
		defer par.SetWorkers(0)
		draw := func() *circuit.Circuit {
			gs := append(rotationLayer(rng, n), randomGates(rng, n, ng)...)
			return &circuit.Circuit{NQubits: n, Gates: gs}
		}
		c := draw()
		move := func(g *circuit.Gate) {
			if rng.Intn(2) == 0 {
				g.Theta += math.Pi / 2 * float64(2*rng.Intn(2)-1)
			} else {
				g.Theta = rng.NormFloat64() * 2
			}
		}
		s := NewState(n)
		for step := 0; step < 1+int(steps)%16; step++ {
			par.SetWorkers(1 + rng.Intn(3))
			switch rng.Intn(6) {
			case 0: // one angle
				move(&c.Gates[rng.Intn(len(c.Gates))])
			case 1: // several
				for i := rng.Intn(4); i >= 0; i-- {
					move(&c.Gates[rng.Intn(len(c.Gates))])
				}
			case 2: // none
			case 3: // all
				for i := range c.Gates {
					move(&c.Gates[i])
				}
			case 4:
				c = draw()
			case 5: // the live state only
				switch rng.Intn(3) {
				case 0:
					s.Apply(randomGates(rng, n, 1)[0])
				case 1:
					s.MeasureQubit(rng.Intn(n), qrng.NewStream(rng.Int63()))
				default:
					s.Sample(1+rng.Intn(100), rng)
				}
			}
			if err := s.Run(c); err != nil {
				t.Fatal(err)
			}
			fresh := NewState(n)
			if err := fresh.Run(c); err != nil {
				t.Fatal(err)
			}
			requireSameBits(t, fmt.Sprintf("n=%d step %d", n, step), s, fresh)
		}

		ref := frozenRun(c)
		same := func(label string, re, im []float64) {
			for i := range ref.re {
				if math.Float64bits(re[i]+0) != math.Float64bits(ref.re[i]+0) ||
					math.Float64bits(im[i]+0) != math.Float64bits(ref.im[i]+0) {
					t.Fatalf("%s: amp[%d] = (%g,%g), frozen prefix (%g,%g)", label, i, re[i], im[i], ref.re[i], ref.im[i])
				}
			}
		}
		same("dense", s.re, s.im)
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
		re, im := make([]float64, 1<<n), make([]float64, 1<<n)
		for i := range re {
			re[i], im[i] = sh.Amp(i)
		}
		same(fmt.Sprintf("sharded n=%d k=%d", n, k), re, im)
	})
}

// BenchmarkRunParameterShift replays one GD iteration's bound VQE
// circuits in the optimizer's order through one recycled State, which
// is what the dense engine runs on vqe12-gd. It reports ns per Run and
// the ops each Run executes after its build or resume; without the
// product prefix and the checkpoint every Run would execute every op,
// 39 at 12 qubits and 51 at 16.
func BenchmarkRunParameterShift(b *testing.B) {
	for _, n := range []int{12, 16} {
		b.Run(fmt.Sprintf("%dq", n), func(b *testing.B) {
			seq := shiftIteration(n)
			s := NewState(n)
			for _, c := range seq {
				if err := s.Run(c); err != nil {
					b.Fatal(err)
				}
			}
			ops := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Run(seq[i%len(seq)]); err != nil {
					b.Fatal(err)
				}
				ops += s.ran
			}
			b.ReportMetric(float64(ops)/float64(b.N), "ops/Run")
		})
	}
}
