package qsim

import (
	"math/rand"
	qrng "qtenon/internal/rng"

	"qtenon/internal/par"
)

// Measurement sampling. The old implementation rebuilt an O(2^n)
// cumulative distribution on every Sample call and binary-searched it
// per shot. This version builds a Walker/Vose alias table once per state
// (cached on the State, invalidated by any mutating kernel), giving O(1)
// per shot, and draws shots in parallel over fixed-size blocks.
//
// Determinism: each block of sampleBlock shots gets its own RNG seeded
// by one serial draw from the caller's RNG. The block partition depends
// only on the shot count, so a fixed caller seed produces an identical
// outcome stream at any GOMAXPROCS — and no worker ever touches the
// caller's (non-concurrency-safe) *rand.Rand.
//
// Memory discipline: the alias build works out of the owning State's
// scratch arena (probability snapshot, scaling array, worklists), so
// rebuilding the table after a state mutation reuses the previous
// build's storage, and the table itself (prob/alias) reuses the storage
// of the table the mutation retired.

// sampleBlock is the per-worker shot granularity.
const sampleBlock = 4096

// aliasTable is an immutable alias-method sampler over basis states.
type aliasTable struct {
	// prob[i] is the probability of keeping slot i when drawn; alias[i]
	// is the outcome used otherwise.
	prob  []float64
	alias []int32
}

// aliasScratch is the reusable working memory of an alias-table build:
// everything the build touches that does not escape into the table. One
// scratch serves one build at a time; its buffers are recycled across
// builds, so a warmed scratch grows no further.
type aliasScratch struct {
	scaled       []float64
	small, large []int32
}

// newAliasTable builds the table in O(N) from an (approximately
// normalized) distribution through scratch. Exact zeros stay
// impossible: a zero-weight slot keeps probability 0 and always
// forwards to its alias. spare, when non-nil, donates its prob/alias
// storage to the new table (every slot is overwritten by the build).
func newAliasTable(p []float64, scratch *aliasScratch, spare *aliasTable) *aliasTable {
	n := len(p)
	total := par.SumFloat64(n, func(lo, hi int) float64 {
		var t float64
		for _, v := range p[lo:hi] {
			t += v
		}
		return t
	})
	if total <= 0 {
		total = 1
	}
	t := spare
	if t == nil || cap(t.prob) < n {
		t = &aliasTable{prob: make([]float64, n), alias: make([]int32, n)}
	} else {
		t.prob = t.prob[:n]
		t.alias = t.alias[:n]
	}
	scaled := growFloat64(scratch.scaled[:0], n)
	small := scratch.small[:0]
	large := scratch.large[:0]
	scale := float64(n) / total
	for i, v := range p {
		scaled[i] = v * scale
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		t.prob[s] = scaled[s]
		t.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	// Leftovers are within rounding of probability 1.
	for _, l := range large {
		t.prob[l] = 1
		t.alias[l] = l
	}
	for _, s := range small {
		t.prob[s] = 1
		t.alias[s] = s
	}
	scratch.scaled = scaled
	scratch.small = small
	scratch.large = large
	return t
}

// draw returns one basis-state index: O(1) — one uniform slot pick plus
// one acceptance test.
func (t *aliasTable) draw(rng *rand.Rand) int {
	i := rng.Intn(len(t.prob))
	if rng.Float64() < t.prob[i] {
		return i
	}
	return int(t.alias[i])
}

// ensureSampler returns the cached alias table, building it (through the
// State's scratch arena) if a mutation invalidated it.
func (s *State) ensureSampler() *aliasTable {
	t := s.sampler
	if t == nil {
		s.probScratch = s.AppendProbabilities(s.probScratch[:0])
		t = newAliasTable(s.probScratch, &s.buildScratch, s.spareTable)
		s.spareTable = nil
		s.sampler = t
	}
	return t
}

// Sample draws `shots` full-register measurement outcomes (basis-state
// indices, qubit 0 in bit 0) without collapsing the state. The alias
// table is cached on the State, so repeated sampling of an unchanged
// state costs O(shots) after the first call. The returned slice is
// freshly allocated and owned by the caller.
//
// rng must not be shared with other goroutines while Sample runs; it is
// consumed only on the calling goroutine (one seed draw per shot block),
// and each block samples from an independent derived sub-stream.
func (s *State) Sample(shots int, rng *rand.Rand) []uint64 {
	if shots <= 0 {
		return nil
	}
	t := s.ensureSampler()
	out := make([]uint64, shots)
	nblocks := (shots + sampleBlock - 1) / sampleBlock
	s.seedScratch = appendSeeds(s.seedScratch[:0], nblocks, rng)
	seeds := s.seedScratch
	par.Do(nblocks, func(b int) {
		sub := qrng.New(seeds[b])
		lo := b * sampleBlock
		hi := lo + sampleBlock
		if hi > shots {
			hi = shots
		}
		for k := lo; k < hi; k++ {
			out[k] = uint64(t.draw(sub))
		}
	})
	return out
}

// appendSeeds appends one sub-stream seed per shot block to seeds,
// drawn serially from the caller's rng.
func appendSeeds(seeds []int64, nblocks int, rng *rand.Rand) []int64 {
	for i := 0; i < nblocks; i++ {
		seeds = append(seeds, rng.Int63())
	}
	return seeds
}
