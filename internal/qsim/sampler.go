package qsim

import (
	"slices"

	"qtenon/internal/par"
	"qtenon/internal/rng"
)

// Measurement sampling. Both statevector engines sample through one
// sampler, which takes the chunks the engine stores: State passes its
// whole array as one chunk, Sharded its shards. Every call builds one
// Walker/Vose alias table per chunk (O(N) build, O(1) per shot) and,
// when there is more than one chunk, a top-level table over the chunk
// masses; a shot then draws a chunk from the top table and an amplitude
// from that chunk's table. The tables are rebuilt on every call into
// storage recycled from the previous one, and nothing is cached: every
// production caller samples each state once.
//
// Determinism: each block of sampleBlock shots draws from its own
// sub-stream, seeded by one serial Int63 of the caller's source. The
// block partition depends only on the shot count, each block reseeds
// its sub-stream before its first shot, and the tables do not depend on
// how the chunk builds are grouped across workers, so a fixed caller
// seed produces an identical outcome stream at any GOMAXPROCS — and no
// worker ever touches the caller's source, which need not be safe for
// concurrent use. The sub-streams are recycled Streams, one per worker
// group of contiguous blocks, reseeded in place.

// sampleBlock is the per-worker shot granularity.
const sampleBlock = 4096

// aliasTable is an alias-method sampler over the outcomes of one chunk
// (or, for the top level, over the chunks).
type aliasTable struct {
	// prob[i] is the probability of keeping slot i when drawn; alias[i]
	// is the outcome used otherwise.
	prob  []float64
	alias []int32
}

// aliasScratch is the reusable working memory of one group of table
// builds: the weights of the chunk being built and the build's
// worklists. It serves one build at a time.
type aliasScratch struct {
	w            []float64
	small, large []int32
}

// sampler holds the alias tables and build scratch one engine recycles
// across Sample calls.
type sampler struct {
	tables  []aliasTable // one per chunk
	top     aliasTable   // over the chunk masses; built for more than one chunk
	masses  []float64
	scratch []aliasScratch // one per concurrent build group
	seeds   []int64
	subs    []rng.Stream // one per concurrent group of shot blocks
}

// sample draws shots full-register outcomes from a state stored as
// chunks re[c], im[c] of 2^k amplitudes, chunk c holding basis states
// [c·2^k, (c+1)·2^k). The returned slice is freshly allocated and owned
// by the caller.
func (s *sampler) sample(re, im [][]float64, k, shots int, src rng.Source) []uint64 {
	if shots <= 0 {
		return nil
	}
	s.build(re, im)
	out := make([]uint64, shots)
	nblocks := (shots + sampleBlock - 1) / sampleBlock
	s.seeds = s.seeds[:0]
	for b := 0; b < nblocks; b++ {
		s.seeds = append(s.seeds, src.Int63())
	}
	groups := min(par.Workers(), nblocks)
	s.subs = slices.Grow(s.subs[:0], groups)[:groups]
	if groups == 1 {
		s.drawBlocks(out, k, 0, nblocks, &s.subs[0])
	} else {
		par.Do(groups, func(g int) {
			s.drawBlocks(out, k, g*nblocks/groups, (g+1)*nblocks/groups, &s.subs[g])
		})
	}
	return out
}

// drawBlocks draws the shots of blocks [lo, hi) into out, reseeding sub
// from each block's seed.
func (s *sampler) drawBlocks(out []uint64, k, lo, hi int, sub *rng.Stream) {
	tables, top := s.tables, &s.top
	for b := lo; b < hi; b++ {
		sub.Seed(s.seeds[b])
		block := out[b*sampleBlock : min(b*sampleBlock+sampleBlock, len(out))]
		for i := range block {
			c := 0
			if len(tables) > 1 {
				c = top.draw(sub)
			}
			block[i] = uint64(c)<<k | uint64(tables[c].draw(sub))
		}
	}
}

// build rebuilds the chunk tables, in one contiguous group of chunks
// per worker, and the top-level table when there is more than one
// chunk. A single group, which the one-chunk dense state always is,
// runs without the par.Do closure, which would escape to the heap.
func (s *sampler) build(re, im [][]float64) {
	n := len(re)
	groups := min(par.Workers(), n)
	s.tables = slices.Grow(s.tables[:0], n)[:n]
	s.masses = slices.Grow(s.masses[:0], n)[:n]
	s.scratch = slices.Grow(s.scratch[:0], groups)[:groups]
	if groups == 1 {
		s.buildChunks(re, im, 0, n, &s.scratch[0])
	} else {
		par.Do(groups, func(g int) {
			s.buildChunks(re, im, g*n/groups, (g+1)*n/groups, &s.scratch[g])
		})
	}
	if n > 1 {
		m := s.masses
		total := par.SumFloat64(n, func(lo, hi int) float64 {
			var t float64
			for _, v := range m[lo:hi] {
				t += v
			}
			return t
		})
		s.top.build(m, total, &s.scratch[0])
	}
}

// buildChunks builds the tables of chunks [lo, hi) through sc. Each
// chunk's probabilities and their par.SumFloat64 total come from one
// pass; with more than one chunk, a serial sum over the chunk gives the
// mass the top-level table draws it by.
func (s *sampler) buildChunks(re, im [][]float64, lo, hi int, sc *aliasScratch) {
	for c := lo; c < hi; c++ {
		r, m := re[c], im[c]
		w := slices.Grow(sc.w[:0], len(r))[:len(r)]
		sc.w = w
		total := par.SumFloat64(len(r), func(lo, hi int) float64 {
			var t float64
			for i := lo; i < hi; i++ {
				p := float64(r[i]*r[i]) + float64(m[i]*m[i])
				w[i] = p
				t += p
			}
			return t
		})
		if len(re) > 1 {
			var mass float64
			for _, p := range w {
				mass += p
			}
			s.masses[c] = mass
		}
		s.tables[c].build(w, total, sc)
	}
}

// build fills t in O(N) from the weights w, whose par.SumFloat64 total
// is total, using sc's worklists; it overwrites w. Exact zeros stay
// impossible: a zero-weight slot keeps probability 0 and always
// forwards to its alias.
func (t *aliasTable) build(w []float64, total float64, sc *aliasScratch) {
	n := len(w)
	if total <= 0 {
		total = 1
	}
	t.prob = slices.Grow(t.prob[:0], n)[:n]
	t.alias = slices.Grow(t.alias[:0], n)[:n]
	small := sc.small[:0]
	large := sc.large[:0]
	scale := float64(n) / total
	for i := range w {
		w[i] *= scale
		if w[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		t.prob[s] = w[s]
		t.alias[s] = l
		w[l] -= 1 - w[s]
		if w[l] < 1 {
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
	sc.small = small
	sc.large = large
}

// draw returns one outcome: O(1) — one uniform slot pick plus one
// acceptance test.
func (t *aliasTable) draw(src *rng.Stream) int {
	i := src.Intn(len(t.prob))
	if src.Float64() < t.prob[i] {
		return i
	}
	return int(t.alias[i])
}
