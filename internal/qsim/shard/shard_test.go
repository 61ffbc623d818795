package shard

import (
	"math/rand"
	"testing"

	"qtenon/internal/circuit"
	"qtenon/internal/par"
	"qtenon/internal/qsim"
)

// randomCircuit builds a valid bound circuit over n qubits (the same
// generator the qsim fuzz harness uses, duplicated because it is
// test-internal there).
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

// requireExactMatch compares every sharded amplitude against the
// contiguous engine bit-for-bit: same fused program, same kernels, same
// order ⇒ ==, not ≤1e-12.
func requireExactMatch(t *testing.T, s *State, ref *qsim.State, label string) {
	t.Helper()
	refRe, refIm := ref.ReIm()
	for i := range refRe {
		gr, gi := s.Amp(i)
		if gr != refRe[i] || gi != refIm[i] {
			t.Fatalf("%s: amp[%d] = (%g,%g), dense (%g,%g) — sharded execution must be bit-for-bit identical",
				label, i, gr, gi, refRe[i], refIm[i])
		}
	}
}

func runBoth(t *testing.T, c *circuit.Circuit, shardBits int) (*State, *qsim.State) {
	t.Helper()
	ref, err := qsim.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWithShardBits(c.NQubits, shardBits)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(c); err != nil {
		t.Fatal(err)
	}
	return s, ref
}

// FuzzShardedMatchesDense drives the sharded executor — local-group
// batching, cross-shard butterflies, all four CX placements, base-
// offset diagonal sweeps — against the contiguous engine on random
// circuits and random shard geometry, demanding exact (==) amplitude
// equality. The shard-bits dimension forces registers as small as 2
// qubits through many-shard layouts, so global-qubit paths are hit
// constantly rather than only past 16 qubits.
func FuzzShardedMatchesDense(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(40), uint8(2))
	f.Add(int64(2), uint8(2), uint8(5), uint8(1))
	f.Add(int64(3), uint8(13), uint8(60), uint8(4)) // beyond one 2^12-amp tile
	f.Add(int64(4), uint8(12), uint8(120), uint8(8))
	f.Add(int64(5), uint8(9), uint8(1), uint8(3))
	f.Add(int64(6), uint8(11), uint8(80), uint8(16)) // shardBits > n: single shard
	f.Fuzz(func(t *testing.T, seed int64, nq, gates, bits uint8) {
		n := 2 + int(nq)%13      // 2..14 qubits
		ng := 1 + int(gates)%120 // 1..120 gates
		sb := 1 + int(bits)%16   // 1..16 shard bits (clamped to n inside)
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(rng, n, ng)

		par.SetWorkers(4)
		defer par.SetWorkers(0)
		s, ref := runBoth(t, c, sb)
		requireExactMatch(t, s, ref, "fuzz")

		// Probabilities agree exactly too (same squares of the same
		// floats), and the sharded outcome stream is seed-deterministic.
		gp := s.Probabilities()
		wp := ref.Probabilities()
		for i := range wp {
			if gp[i] != wp[i] {
				t.Fatalf("prob[%d] = %g, dense %g", i, gp[i], wp[i])
			}
		}
		a := s.Sample(64, rand.New(rand.NewSource(seed)))
		b := s.Sample(64, rand.New(rand.NewSource(seed)))
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seeded sharded samples diverge at %d", i)
			}
		}
	})
}

// TestShardedMatchesDense is the deterministic slice of the fuzz
// property: fixed seeds across a spread of register widths and shard
// geometries, exact equality demanded. CI runs it under -race at
// GOMAXPROCS=4, so the shard-parallel writes (disjoint chunks, paired
// butterflies) are exercised by the race detector rather than hidden by
// a single-core runner.
func TestShardedMatchesDense(t *testing.T) {
	par.SetWorkers(4)
	defer par.SetWorkers(0)
	cases := []struct {
		seed      int64
		n, gates  int
		shardBits int
	}{
		{1, 2, 12, 1},    // minimal register, 2 shards
		{2, 6, 60, 2},    // 16 shards, every qubit global past bit 1
		{3, 10, 90, 4},   // 64 shards
		{4, 13, 120, 6},  // multi-tile chunks
		{5, 14, 150, 10}, // 16 shards of 2^10
		{6, 16, 80, 12},  // 16 shards of one tile each
		{7, 12, 40, 16},  // single shard (pure local path)
	}
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(tc.seed))
		c := randomCircuit(rng, tc.n, tc.gates)
		s, ref := runBoth(t, c, tc.shardBits)
		requireExactMatch(t, s, ref, "table")
	}
}

// TestShardedCXPlacements pins each of the four CX decomposition cases
// (control/target × local/global) and the global-qubit butterfly
// against the dense engine on a geometry small enough to read: 6
// qubits, 4-amplitude shards (qubits 0–1 local, 2–5 global).
func TestShardedCXPlacements(t *testing.T) {
	build := func(f func(b *circuit.Builder)) *circuit.Circuit {
		b := circuit.NewBuilder(6)
		for q := 0; q < 6; q++ {
			b.RY(q, 0.3+0.1*float64(q)) // break symmetry first
		}
		f(b)
		return b.MustBuild()
	}
	cases := map[string]func(b *circuit.Builder){
		"cx-local-local":   func(b *circuit.Builder) { b.CX(0, 1) },
		"cx-local-global":  func(b *circuit.Builder) { b.CX(1, 4) },
		"cx-global-local":  func(b *circuit.Builder) { b.CX(5, 0) },
		"cx-global-global": func(b *circuit.Builder) { b.CX(3, 5) },
		"h-global":         func(b *circuit.Builder) { b.H(4) },
		"cz-mixed":         func(b *circuit.Builder) { b.CZ(1, 5) },
		"rzz-global":       func(b *circuit.Builder) { b.RZZ(2, 5, 0.7) },
	}
	for name, f := range cases {
		c := build(f)
		s, ref := runBoth(t, c, 2)
		requireExactMatch(t, s, ref, name)
	}
}

// TestShardedSamplerDeterminism pins the sampler contract: fixed seed ⇒
// identical outcome stream at any worker count, and outcomes follow the
// state (deterministic circuit ⇒ deterministic outcomes).
func TestShardedSamplerDeterminism(t *testing.T) {
	c := circuit.NewBuilder(8).X(0).X(5).MeasureAll().MustBuild()
	s, err := NewWithShardBits(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(c); err != nil {
		t.Fatal(err)
	}
	want := uint64(1<<0 | 1<<5)
	par.SetWorkers(1)
	a := s.Sample(9000, rand.New(rand.NewSource(42))) // spans >1 block
	par.SetWorkers(4)
	b := s.Sample(9000, rand.New(rand.NewSource(42)))
	par.SetWorkers(0)
	for i := range a {
		if a[i] != want {
			t.Fatalf("outcome[%d] = %b, want %b", i, a[i], want)
		}
		if a[i] != b[i] {
			t.Fatalf("worker count changed the outcome stream at %d", i)
		}
	}
}

// TestShardedStateSurface covers the remaining engine-contract surface:
// shard geometry, a Run that flips a local and a global qubit, and
// constructor and Run validation.
func TestShardedStateSurface(t *testing.T) {
	c := circuit.NewBuilder(6).X(1).X(4).MeasureAll().MustBuild()
	s, err := NewWithShardBits(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(c); err != nil {
		t.Fatal(err)
	}
	if len(s.re) != 16 || s.shardBits != 2 {
		t.Fatalf("geometry %d shards / %d bits", len(s.re), s.shardBits)
	}
	if re, im := s.Amp(1<<1 | 1<<4); re != 1 || im != 0 {
		t.Fatalf("amplitude of |010010⟩ = (%g, %g), want (1, 0)", re, im)
	}

	if _, err := New(0); err == nil {
		t.Error("New(0) accepted")
	}
	if _, err := New(MaxQubits + 1); err == nil {
		t.Error("New past MaxQubits accepted")
	}
	if _, err := NewWithShardBits(4, 0); err == nil {
		t.Error("shard bits 0 accepted")
	}

	unbound := circuit.NewBuilder(4).RYP(0, 0).MustBuild()
	if err := s.Run(unbound); err == nil {
		t.Error("unbound circuit accepted")
	}
	tooWide := circuit.NewBuilder(8).H(7).MustBuild()
	narrow, _ := NewWithShardBits(4, 2)
	if err := narrow.Run(tooWide); err == nil {
		t.Error("circuit wider than the state accepted")
	}
}

// BenchmarkShardedRun24 is the headline capability point: a 24-qubit
// generic (non-Clifford) layered circuit — impossible on the contiguous
// engine's routing window — executed end to end on the sharded engine.
// Run with -benchtime=1x for a single timed sweep; 256 MiB of state.
func BenchmarkShardedRun24(b *testing.B) {
	bl := circuit.NewBuilder(24)
	for l := 0; l < 3; l++ {
		for q := 0; q < 24; q++ {
			bl.RY(q, 0.1*float64(q+l))
		}
		for q := 0; q+1 < 24; q += 2 {
			bl.CZ(q, q+1)
		}
	}
	c := bl.MeasureAll().MustBuild()
	st, err := New(24)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Run(c); err != nil {
			b.Fatal(err)
		}
	}
}
