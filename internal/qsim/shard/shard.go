// Package shard is the sharded dense statevector engine: amplitudes are
// split into fixed 2^k-amplitude shards, each an independently allocated
// re/im chunk pair, and gate sweeps dispatch shard-parallel over
// internal/par (DESIGN.md §13). It breaks the contiguous engine's
// monolithic-allocation wall — 24–28 generic (non-Clifford) qubits run
// where qsim.State stops at 24 — while producing amplitudes bit-for-bit
// identical to the contiguous engine: Run compiles the same fused
// program (qsim.FusedProgram) and executes it through the same kernels
// in the same per-amplitude order, so equality is exact, not
// approximate (the FuzzShardedMatchesDense property test demands ==).
//
// # Local and global qubits
//
// With 2^k amplitudes per shard, qubit q is "local" when q < k: its
// amplitude pairs lie inside one shard, and every shard applies the
// contiguous pair kernel independently — embarrassingly parallel.
// Qubit q ≥ k is "global": bit q of the amplitude index is bit q−k of
// the shard index, so the gate pairs shard i with shard i|2^(q−k) and a
// cross-shard butterfly kernel combines element j of both chunks.
// Diagonal sweeps (CZ/RZZ/Z-chains) never couple amplitudes and stay
// single-pass per shard at any qubit mix; CX decomposes into four exact
// swap cases by where its control and target live (see applyGlobalOp).
//
// Consecutive shard-local ops are grouped: each shard runs the whole
// group over its resident chunk before the sweep moves on, so a 1 MiB
// shard stays cache-warm across the group instead of every op streaming
// the full statevector (the shard-level analogue of qsim's tile
// grouping). Grouping never reorders per-amplitude arithmetic, so it
// cannot perturb results.
//
// # Concurrency and determinism
//
// Shard-parallel dispatch writes disjoint chunks (or disjoint chunk
// pairs), so sweeps are race-free by construction; the sampler's
// top-level table is built over per-shard masses in shard-index order,
// and sampling uses the same fixed block/seed discipline as the
// contiguous sampler, so results are identical at any GOMAXPROCS. A
// *State is not safe for concurrent use.
package shard

import (
	"fmt"
	"math/rand"

	"qtenon/internal/circuit"
	"qtenon/internal/par"
	"qtenon/internal/qsim"
	qrng "qtenon/internal/rng"
)

// DefaultShardBits sizes production shards at 2^16 amplitudes: 16 of
// qsim's 2^12-amplitude cache tiles, 1 MiB of SoA floats per shard — large
// enough to amortize dispatch, small enough to stay L2-resident across
// a grouped sweep.
const DefaultShardBits = 16

// MaxQubits bounds the sharded engine: 2^28 amplitudes (4 GiB of SoA
// floats across 4096 shards) is the practical ceiling for a development
// machine, and the router's hand-off point to the product surrogate.
const MaxQubits = 28

// State is a normalized statevector over n qubits stored as 2^(n−k)
// shards of 2^k amplitudes (k = shardBits; registers narrower than k
// use a single 2^n-amplitude shard).
type State struct {
	n         int
	shardBits int // log2 amplitudes per shard
	re, im    [][]float64

	// prog is the reusable compiled program Run executes.
	prog qsim.FusedProgram

	// Two-level sampler cache: top picks a shard by its probability
	// mass, sub[s] picks an amplitude within shard s. Invalidated by
	// every mutation; rebuilt storage is recycled across builds.
	samplerValid bool
	top          qsim.Alias
	sub          []qsim.Alias
	topProbs     []float64
	probScratch  [][]float64
	seedScratch  []int64
	// buildScratch holds one alias-build scratch per concurrent group of
	// shard-table builds (see ensureSampler), not one per shard: a
	// scratch is about 1 MiB for a 2^16-amplitude shard.
	buildScratch []qsim.AliasScratch
}

// New returns |0…0⟩ over n qubits with the production shard size.
func New(n int) (*State, error) {
	return NewWithShardBits(n, DefaultShardBits)
}

// NewWithShardBits returns |0…0⟩ with an explicit shard size of 2^k
// amplitudes — the test/fuzz seam that exercises many-shard geometry on
// small registers. Registers narrower than k get a single shard.
func NewWithShardBits(n, k int) (*State, error) {
	if n <= 0 || n > MaxQubits {
		return nil, fmt.Errorf("shard: qubit count %d outside (0,%d]", n, MaxQubits)
	}
	if k < 1 {
		return nil, fmt.Errorf("shard: shard bits %d < 1", k)
	}
	if k > n {
		k = n
	}
	s := &State{n: n, shardBits: k}
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
func (s *State) NQubits() int { return s.n }

// Amp returns the amplitude of basis state i as (re, im) — the exact
// SoA storage values, for equivalence tests against the contiguous
// engine.
func (s *State) Amp(i int) (re, im float64) {
	sh := i >> s.shardBits
	j := i & (1<<s.shardBits - 1)
	return s.re[sh][j], s.im[sh][j]
}

// invalidate drops the cached sampler; every mutating path calls it.
func (s *State) invalidate() { s.samplerValid = false }

// Reset restores |0…0⟩ in place, keeping all shard storage.
func (s *State) Reset() {
	s.invalidate()
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
// program — the same compilation the contiguous engine runs, dispatched
// shard-parallel.
func (s *State) Run(c *circuit.Circuit) error {
	if c.NumParams != 0 {
		return fmt.Errorf("shard: circuit has %d unbound parameters", c.NumParams)
	}
	if c.NQubits > s.n {
		return fmt.Errorf("shard: circuit needs %d qubits, state has %d", c.NQubits, s.n)
	}
	if err := c.Validate(); err != nil {
		return err
	}
	s.Reset()
	s.prog.Compile(c.Gates)
	s.execute(&s.prog)
	return nil
}

// execute runs a compiled program: maximal runs of shard-local ops are
// grouped per shard (cache-resident chunk, one parallel dispatch),
// cross-shard ops run between groups.
func (s *State) execute(p *qsim.FusedProgram) {
	if p.NumOps() == 0 {
		return
	}
	s.invalidate()
	nOps := p.NumOps()
	i := 0
	for i < nOps {
		if s.opShardLocal(p, i) {
			j := i + 1
			for j < nOps && s.opShardLocal(p, j) {
				j++
			}
			s.applyLocalGroup(p, i, j)
			i = j
			continue
		}
		s.applyGlobalOp(p, i)
		i++
	}
}

// opShardLocal reports whether op i writes only within individual
// shards: diagonal batches always do; a 1q matrix does when its qubit
// is local; a CX does when its *target* is local (a global control just
// selects which shards apply the X — still in-shard writes).
func (s *State) opShardLocal(p *qsim.FusedProgram, i int) bool {
	kind, q, q2 := p.OpInfo(i)
	switch kind {
	case qsim.Op1Q:
		return q < s.shardBits
	case qsim.OpCX:
		return q2 < s.shardBits
	default:
		return true
	}
}

// applyLocalGroup runs ops [lo, hi) — all shard-local — over every
// shard: one parallel dispatch, each shard sweeping its chunk through
// the whole group while it is cache-resident. Shards write disjoint
// chunks, so the dispatch is race-free.
func (s *State) applyLocalGroup(p *qsim.FusedProgram, lo, hi int) {
	par.Do(len(s.re), func(sh int) {
		re, im := s.re[sh], s.im[sh]
		base := sh << s.shardBits
		for k := lo; k < hi; k++ {
			kind, q, q2 := p.OpInfo(k)
			switch kind {
			case qsim.Op1Q:
				p.Apply1QChunk(k, re, im)
			case qsim.OpCX:
				if q < s.shardBits {
					qsim.ApplyCXChunk(re, im, q, q2)
				} else if sh>>(q-s.shardBits)&1 == 1 {
					// Global control: this shard's index carries the
					// control bit set, so the local target flips.
					qsim.ApplyXChunk(re, im, q2)
				}
			default:
				p.ApplyDiagChunk(k, re, im, base)
			}
		}
	})
}

// applyGlobalOp runs one cross-shard op. A global-qubit 1q matrix pairs
// shards (i, i|bit) and butterflies their chunks elementwise; a CX with
// a global target either swaps selected elements across the shard pair
// (local control) or — both operands global — swaps whole chunk
// descriptors in O(1). Every pair is touched by exactly one dispatch
// index, so parallel pairs never overlap.
func (s *State) applyGlobalOp(p *qsim.FusedProgram, i int) {
	kind, q, q2 := p.OpInfo(i)
	switch kind {
	case qsim.Op1Q:
		bit := 1 << (q - s.shardBits)
		lowMask := bit - 1
		par.Do(len(s.re)/2, func(k int) {
			s0 := (k&^lowMask)<<1 | k&lowMask
			s1 := s0 | bit
			p.Apply1QPairChunks(i, s.re[s0], s.im[s0], s.re[s1], s.im[s1])
		})
	case qsim.OpCX:
		tbit := 1 << (q2 - s.shardBits)
		if q >= s.shardBits {
			cbit := 1 << (q - s.shardBits)
			for sh := range s.re {
				if sh&cbit != 0 && sh&tbit == 0 {
					o := sh | tbit
					s.re[sh], s.re[o] = s.re[o], s.re[sh]
					s.im[sh], s.im[o] = s.im[o], s.im[sh]
				}
			}
			return
		}
		lowMask := tbit - 1
		par.Do(len(s.re)/2, func(k int) {
			s0 := (k&^lowMask)<<1 | k&lowMask
			s1 := s0 | tbit
			qsim.SwapWhereSetChunk(s.re[s0], s.im[s0], s.re[s1], s.im[s1], q)
		})
	}
}

// Probabilities returns the full 2^n basis distribution (small n only —
// the slice is contiguous).
func (s *State) Probabilities() []float64 {
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
// the contiguous sampler; all table storage is recycled across builds.
func (s *State) ensureSampler() {
	if s.samplerValid {
		return
	}
	numShards := len(s.re)
	if cap(s.sub) < numShards {
		s.sub = make([]qsim.Alias, numShards)
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
		s.buildScratch = append(s.buildScratch, make([]qsim.AliasScratch, groups-len(s.buildScratch))...)
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
			s.sub[sh] = qsim.NewAlias(probs, s.sub[sh], scratch)
		}
	})
	s.top = qsim.NewAlias(s.topProbs, s.top, &s.buildScratch[0])
	s.samplerValid = true
}

// Sample draws shots full-register outcomes without collapsing the
// state: a top-level draw picks the shard, a per-shard draw the
// amplitude. Shots run in fixed qsim.SampleBlock blocks, each seeded by
// one serial draw from the caller's RNG — the contiguous sampler's
// determinism discipline, so outcome streams are GOMAXPROCS-independent
// and rng is only touched on the calling goroutine.
func (s *State) Sample(shots int, rng *rand.Rand) []uint64 {
	if shots <= 0 {
		return nil
	}
	s.ensureSampler()
	out := make([]uint64, shots)
	nblocks := (shots + qsim.SampleBlock - 1) / qsim.SampleBlock
	seeds := s.seedScratch[:0]
	for i := 0; i < nblocks; i++ {
		seeds = append(seeds, rng.Int63())
	}
	s.seedScratch = seeds
	shardBits := uint(s.shardBits)
	par.Do(nblocks, func(b int) {
		sub := qrng.New(seeds[b])
		lo := b * qsim.SampleBlock
		hi := lo + qsim.SampleBlock
		if hi > shots {
			hi = shots
		}
		for k := lo; k < hi; k++ {
			sh := s.top.Draw(sub)
			j := s.sub[sh].Draw(sub)
			out[k] = uint64(sh)<<shardBits | uint64(j)
		}
	})
	return out
}
