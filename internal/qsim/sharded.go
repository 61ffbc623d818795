package qsim

import (
	"fmt"
	"math/rand"

	"qtenon/internal/circuit"
	"qtenon/internal/par"
	qrng "qtenon/internal/rng"
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

	// prog is the reusable compiled program Run executes.
	prog program

	// Two-level sampler cache: top picks a shard by its probability
	// mass, sub[s] picks an amplitude within shard s. Invalidated by
	// every mutation; rebuilt storage is recycled across builds.
	samplerValid bool
	top          *aliasTable
	sub          []*aliasTable
	topProbs     []float64
	probScratch  [][]float64
	seedScratch  []int64
	// buildScratch holds one alias-build scratch per concurrent group of
	// shard-table builds (see ensureSampler), not one per shard: a
	// scratch is about 1 MiB for a 2^16-amplitude shard.
	buildScratch []aliasScratch
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

// Reset restores |0…0⟩ in place, keeping all shard storage.
func (s *Sharded) Reset() {
	s.samplerValid = false
	par.Do(len(s.re), func(sh int) {
		re, im := s.re[sh], s.im[sh]
		for i := range re {
			re[i] = 0
		}
		for i := range im {
			im[i] = 0
		}
	})
	s.re[0][0] = 1
}

// Run resets the state and executes a bound circuit through the fused
// program — the same compilation and executor State.Run uses, with the
// shards as chunks.
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
	s.Reset()
	s.prog.compile(c.Gates)
	s.prog.run(s.re, s.im, s.shardBits, false)
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
			p[i] = re[i]*re[i] + im[i]*im[i]
		}
	})
	return out
}

// ensureSampler builds the two-level alias sampler: a per-shard table
// over the shard's amplitudes plus a top-level table over shard masses.
// Build cost is O(2^n) once per mutation, amortized across shots like
// State's sampler; all table storage is recycled across builds.
func (s *Sharded) ensureSampler() {
	if s.samplerValid {
		return
	}
	numShards := len(s.re)
	if cap(s.sub) < numShards {
		s.sub = make([]*aliasTable, numShards)
		s.probScratch = make([][]float64, numShards)
		s.topProbs = make([]float64, numShards)
	}
	s.sub = s.sub[:numShards]
	s.probScratch = s.probScratch[:numShards]
	s.topProbs = s.topProbs[:numShards]
	// The shard tables are built in one contiguous group per worker,
	// each group through its own recycled scratch; the top-level table
	// reuses the first group's.
	groups := min(par.Workers(), numShards)
	if len(s.buildScratch) < groups {
		s.buildScratch = append(s.buildScratch, make([]aliasScratch, groups-len(s.buildScratch))...)
	}
	par.Do(groups, func(g int) {
		scratch := &s.buildScratch[g]
		for sh := g * numShards / groups; sh < (g+1)*numShards/groups; sh++ {
			re, im := s.re[sh], s.im[sh]
			probs := s.probScratch[sh]
			if cap(probs) < len(re) {
				probs = make([]float64, len(re))
			}
			probs = probs[:len(re)]
			var mass float64
			for i := range re {
				p := re[i]*re[i] + im[i]*im[i]
				probs[i] = p
				mass += p
			}
			s.probScratch[sh] = probs
			s.topProbs[sh] = mass
			s.sub[sh] = newAliasTable(probs, scratch, s.sub[sh])
		}
	})
	s.top = newAliasTable(s.topProbs, &s.buildScratch[0], s.top)
	s.samplerValid = true
}

// Sample draws shots full-register outcomes without collapsing the
// state: a top-level draw picks the shard, a per-shard draw the
// amplitude. Shots run in fixed sampleBlock blocks, each seeded by one
// serial draw from the caller's RNG — State's determinism discipline,
// so outcome streams are GOMAXPROCS-independent and rng is only touched
// on the calling goroutine.
func (s *Sharded) Sample(shots int, rng *rand.Rand) []uint64 {
	if shots <= 0 {
		return nil
	}
	s.ensureSampler()
	out := make([]uint64, shots)
	nblocks := (shots + sampleBlock - 1) / sampleBlock
	s.seedScratch = appendSeeds(s.seedScratch[:0], nblocks, rng)
	seeds := s.seedScratch
	shardBits := uint(s.shardBits)
	par.Do(nblocks, func(b int) {
		sub := qrng.New(seeds[b])
		lo := b * sampleBlock
		hi := lo + sampleBlock
		if hi > shots {
			hi = shots
		}
		for k := lo; k < hi; k++ {
			sh := s.top.draw(sub)
			j := s.sub[sh].draw(sub)
			out[k] = uint64(sh)<<shardBits | uint64(j)
		}
	})
	return out
}
