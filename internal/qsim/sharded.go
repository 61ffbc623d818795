package qsim

import (
	"fmt"

	"qtenon/internal/circuit"
	"qtenon/internal/par"
	"qtenon/internal/rng"
)

// DefaultShardBits sizes production shards at 2^16 amplitudes: 16 of
// State's 2^12-amplitude cache tiles, 1 MiB of SoA floats per shard —
// large enough to amortize dispatch, small enough to stay L2-resident
// across a grouped sweep.
const DefaultShardBits = 16

// ShardedMaxQubits bounds the sharded engine: 2^28 amplitudes (4 GiB of
// SoA floats across 4096 shards) is the practical ceiling for a
// development machine, and the router's hand-off point to the product
// surrogate.
const ShardedMaxQubits = 28

// Sharded is the sharded statevector engine (DESIGN.md §13): amplitudes
// are split into 2^(n−k) shards of 2^k amplitudes, each an independently
// allocated re/im chunk pair, so 24–28 generic qubits run where State's
// one allocation stops at MaxQubits. Run compiles the same fused program
// as State.Run and runs it through the same chunk executor with the
// shards as chunks, so its amplitudes are bit-for-bit State's. A
// *Sharded is not safe for concurrent use.
type Sharded struct {
	n         int
	shardBits int // log2 amplitudes per shard
	re, im    [][]float64

	// prog and smp are the reusable working memory of Run and Sample.
	prog program
	smp  sampler
}

// NewSharded returns |0…0⟩ over n qubits with the production shard size.
func NewSharded(n int) (*Sharded, error) {
	return NewShardedBits(n, DefaultShardBits)
}

// NewShardedBits returns |0…0⟩ with an explicit shard size of 2^k
// amplitudes — the test/fuzz seam that exercises many-shard geometry on
// small registers. Registers narrower than k get a single shard.
func NewShardedBits(n, k int) (*Sharded, error) {
	if n <= 0 || n > ShardedMaxQubits {
		return nil, fmt.Errorf("qsim: sharded qubit count %d outside (0,%d]", n, ShardedMaxQubits)
	}
	if k < 1 {
		return nil, fmt.Errorf("qsim: shard bits %d < 1", k)
	}
	if k > n {
		k = n
	}
	s := &Sharded{n: n, shardBits: k}
	numShards := 1 << (n - k)
	chunk := 1 << k
	s.re = make([][]float64, numShards)
	s.im = make([][]float64, numShards)
	for i := range s.re {
		s.re[i] = make([]float64, chunk)
		s.im[i] = make([]float64, chunk)
	}
	s.re[0][0] = 1
	return s, nil
}

// NQubits reports the register width.
func (s *Sharded) NQubits() int { return s.n }

// Amp returns the amplitude of basis state i as (re, im) — the exact
// SoA storage values, for equivalence tests against State.
func (s *Sharded) Amp(i int) (re, im float64) {
	sh := i >> s.shardBits
	j := i & (1<<s.shardBits - 1)
	return s.re[sh][j], s.im[sh][j]
}

// Run executes a bound circuit from |0…0⟩ through the fused program —
// the same compilation, product-prefix build and executor State.Run
// uses, with the shards as chunks. It keeps no prefix checkpoint: one
// would double a state of up to 4 GiB.
func (s *Sharded) Run(c *circuit.Circuit) error {
	if c.NumParams != 0 {
		return fmt.Errorf("qsim: circuit has %d unbound parameters", c.NumParams)
	}
	if c.NQubits > s.n {
		return fmt.Errorf("qsim: circuit needs %d qubits, sharded state has %d", c.NQubits, s.n)
	}
	if err := c.Validate(); err != nil {
		return err
	}
	s.prog.compile(c.Gates)
	s.prog.build(s.re, s.im, s.shardBits)
	s.prog.run(s.re, s.im, s.shardBits, false, s.prog.pre, len(s.prog.ops))
	return nil
}

// Probabilities returns the full 2^n basis distribution (small n only —
// the slice is contiguous).
func (s *Sharded) Probabilities() []float64 {
	out := make([]float64, 1<<s.n)
	chunk := 1 << s.shardBits
	par.Do(len(s.re), func(sh int) {
		re, im := s.re[sh], s.im[sh]
		p := out[sh*chunk : sh*chunk+chunk]
		for i := range p {
			p[i] = float64(re[i]*re[i]) + float64(im[i]*im[i])
		}
	})
	return out
}

// Sample draws shots full-register outcomes without collapsing the
// state, through the sampler with the shards as chunks: a top-level
// draw picks the shard, a per-shard draw the amplitude. A single shard
// (n ≤ the shard bits) has no top-level draw. src is only touched on
// the calling goroutine.
func (s *Sharded) Sample(shots int, src rng.Source) []uint64 {
	return s.smp.sample(s.re, s.im, s.shardBits, shots, src)
}
