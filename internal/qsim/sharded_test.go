package qsim

import (
	"math/rand"
	"testing"

	"qtenon/internal/circuit"
	"qtenon/internal/par"
)

// requireExactMatch compares every sharded amplitude against the
// contiguous engine bit-for-bit: same fused program, same executor,
// same kernels ⇒ ==, not ≤1e-12.
func requireExactMatch(t *testing.T, s *Sharded, ref *State, label string) {
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

func runBoth(t *testing.T, c *circuit.Circuit, shardBits int) (*Sharded, *State) {
	t.Helper()
	ref, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewShardedBits(c.NQubits, shardBits)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(c); err != nil {
		t.Fatal(err)
	}
	return s, ref
}

// FuzzShardedMatchesDense runs random circuits through the chunk
// executor at two chunk sizes — the sharded engine at a random shard
// size, the dense engine in its 2^12-amplitude tiles — and demands
// exact (==) amplitude equality, so it checks that results do not
// depend on the chunk size: local-group batching, cross-chunk
// butterflies, all four CX placements and base-offset diagonal sweeps
// must compute the same bits wherever the chunk boundary falls. A
// circuit is a random mix, real gates, or real gates followed by a
// random mix, so the real prefix ends early, covers the whole program
// or ends inside it. The shard-bits dimension forces registers as small
// as 2 qubits through many-shard layouts, so global-qubit paths are hit
// constantly rather than only past the tile.
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
		if shape := rng.Intn(3); shape > 0 {
			c.Gates = realGates(rng, n, ng)
			if shape == 2 {
				c.Gates = append(c.Gates, randomGates(rng, n, ng)...)
			}
		}

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
// geometries, exact equality demanded. A real case draws real gates
// only, so every op runs in the real prefix: over re alone, with the
// real butterflies on the global qubits. CI runs it under -race at
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
		realOnly  bool
	}{
		{1, 2, 12, 1, false},    // minimal register, 2 shards
		{2, 6, 60, 2, false},    // 16 shards, every qubit global past bit 1
		{3, 10, 90, 4, false},   // 64 shards
		{4, 13, 120, 6, false},  // multi-tile chunks
		{5, 14, 150, 10, false}, // 16 shards of 2^10
		{6, 16, 80, 12, false},  // 16 shards of one tile each
		{7, 12, 40, 16, false},  // single shard (pure local path)
		{8, 14, 150, 10, true},  // real: qubits 10–11 global here, local in the dense tiles
	}
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(tc.seed))
		c := randomCircuit(rng, tc.n, tc.gates)
		if tc.realOnly {
			c.Gates = realGates(rng, tc.n, tc.gates)
		}
		s, ref := runBoth(t, c, tc.shardBits)
		requireExactMatch(t, s, ref, "table")
	}
}

// TestShardedCXPlacements pins each of the four CX placement cases
// (control/target × local/global), the global-qubit butterfly and
// diagonal terms across the chunk boundary on two geometries, with g and
// h the two global qubits named in each case. At 6 qubits in 4-amplitude
// shards (qubits 2–5 global, g = 4, h = 5) the sharded engine's global
// paths run against the single-tile dense engine. At 14 qubits the
// dense engine's 2^12-amplitude tiles put g = 12 and h = 13 above the
// tile, so its global paths, the whole-tile exchange included, run
// against one 2^14-amplitude shard, where every op is local.
func TestShardedCXPlacements(t *testing.T) {
	cases := map[string]func(b *circuit.Builder, g, h int){
		"cx-local-local":   func(b *circuit.Builder, g, h int) { b.CX(0, 1) },
		"cx-local-global":  func(b *circuit.Builder, g, h int) { b.CX(1, g) },
		"cx-global-local":  func(b *circuit.Builder, g, h int) { b.CX(h, 0) },
		"cx-global-global": func(b *circuit.Builder, g, h int) { b.CX(g, h) },
		"h-global":         func(b *circuit.Builder, g, h int) { b.H(g) },
		"cz-mixed":         func(b *circuit.Builder, g, h int) { b.CZ(1, h) },
		"rzz-global":       func(b *circuit.Builder, g, h int) { b.RZZ(g, h, 0.7) },
	}
	geometries := []struct{ n, shardBits, g, h int }{{6, 2, 4, 5}, {14, 14, 12, 13}}
	for name, f := range cases {
		for _, geo := range geometries {
			b := circuit.NewBuilder(geo.n)
			// Break symmetry first, and give every amplitude an
			// imaginary part, so a swap that skips im shows.
			for q := 0; q < geo.n; q++ {
				b.RY(q, 0.3+0.1*float64(q)).RZ(q, 0.2+0.1*float64(q))
			}
			f(b, geo.g, geo.h)
			s, ref := runBoth(t, b.MustBuild(), geo.shardBits)
			requireExactMatch(t, s, ref, name)
		}
	}
}

// TestShardedSamplerDeterminism pins the sampler contract: fixed seed ⇒
// identical outcome stream at any worker count, and outcomes follow the
// state (deterministic circuit ⇒ deterministic outcomes).
func TestShardedSamplerDeterminism(t *testing.T) {
	c := circuit.NewBuilder(8).X(0).X(5).MeasureAll().MustBuild()
	s, err := NewShardedBits(8, 3)
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

// TestOneShardSamplesLikeDense pins the sampler's one-chunk rule: a
// sharded state of one shard makes no top-level draw, so at one seed it
// samples the dense engine's outcome words.
func TestOneShardSamplesLikeDense(t *testing.T) {
	c := randomCircuit(rand.New(rand.NewSource(3)), 6, 40)
	s, ref := runBoth(t, c, DefaultShardBits)
	if len(s.re) != 1 {
		t.Fatalf("%d shards, want 1", len(s.re))
	}
	got := s.Sample(9000, rand.New(rand.NewSource(5)))
	want := ref.Sample(9000, rand.New(rand.NewSource(5)))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("outcome %d = %#x, dense engine %#x", i, got[i], want[i])
		}
	}
}

// TestShardedStateSurface covers the remaining engine-contract surface:
// shard geometry, a Run that flips a local and a global qubit, and
// constructor and Run validation.
func TestShardedStateSurface(t *testing.T) {
	c := circuit.NewBuilder(6).X(1).X(4).MeasureAll().MustBuild()
	s, err := NewShardedBits(6, 2)
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

	if _, err := NewSharded(0); err == nil {
		t.Error("NewSharded(0) accepted")
	}
	if _, err := NewSharded(ShardedMaxQubits + 1); err == nil {
		t.Error("NewSharded past ShardedMaxQubits accepted")
	}
	if _, err := NewShardedBits(4, 0); err == nil {
		t.Error("shard bits 0 accepted")
	}

	unbound := circuit.NewBuilder(4).RYP(0, 0).MustBuild()
	if err := s.Run(unbound); err == nil {
		t.Error("unbound circuit accepted")
	}
	tooWide := circuit.NewBuilder(8).H(7).MustBuild()
	narrow, _ := NewShardedBits(4, 2)
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
	st, err := NewSharded(24)
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
