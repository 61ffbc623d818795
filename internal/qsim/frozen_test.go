package qsim

import (
	"fmt"
	"math/rand"

	"qtenon/internal/circuit"
	"qtenon/internal/par"
	qrng "qtenon/internal/rng"
)

// Frozen references. State.Apply once ran its own whole-array gate
// kernels, and State and Sharded each had their own cached alias
// sampler. These are those kernels and samplers as they were, with their
// types renamed: frozenState holds a dense state's arrays, and
// frozenSharded a sharded state's shards. FuzzEngineMatchesFrozen
// demands that Apply and the shared sampler reproduce them bit for bit.
// The real pair kernel and the sign-term stride loops are frozen here
// too, as they were before the block loops and the one-pass sign sweep:
// frozenState runs the former, and FuzzSignSweepMatchesFrozen holds the
// sweep to the latter.

// frozenState is a dense statevector driven by the frozen kernels and
// sampled by the frozen dense sampler.
type frozenState struct {
	re, im       []float64
	sampler      *frozenTable
	spareTable   *frozenTable
	probScratch  []float64
	buildScratch frozenScratch
	seedScratch  []int64
}

func (s *frozenState) invalidate() {
	if s.sampler != nil {
		s.spareTable = s.sampler
	}
	s.sampler = nil
}

// apply1Q applies the 2×2 unitary {{u00,u01},{u10,u11}} to qubit q.
func (s *frozenState) apply1Q(q int, u00, u01, u10, u11 complex128) {
	s.invalidate()
	re, im := s.re, s.im
	stride := 1 << q
	u := [4]complex128{u00, u01, u10, u11}
	if matIsReal(&u) {
		r := [4]float64{real(u00), real(u01), real(u10), real(u11)}
		par.For(len(re)>>1, func(lo, hi int) {
			frozenApply1QRealPairs(re, im, stride, r, lo, hi)
		})
		return
	}
	par.For(len(re)>>1, func(lo, hi int) {
		apply1QCmplxPairs(re, im, stride, &u, lo, hi)
	})
}

// applyCZ applies a controlled-Z between qubits a and b.
func (s *frozenState) applyCZ(a, b int) {
	s.invalidate()
	re, im := s.re, s.im
	m := 1<<a | 1<<b
	par.For(len(re), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if i&m == m {
				re[i] = -re[i]
				im[i] = -im[i]
			}
		}
	})
}

// applyCX applies a CNOT with the given control and target.
func (s *frozenState) applyCX(control, target int) {
	s.invalidate()
	re, im := s.re, s.im
	mc, mt := 1<<control, 1<<target
	par.For(len(re), func(lo, hi int) {
		applyCXRange(re, im, mc, mt, lo, hi)
	})
}

// applyRZZ applies exp(-i θ/2 Z_a Z_b), which is diagonal.
func (s *frozenState) applyRZZ(a, b int, theta float64) {
	s.invalidate()
	re, im := s.re, s.im
	ma, mb := 1<<a, 1<<b
	ePlus := expI(-theta / 2) // ZZ eigenvalue +1
	eMinus := expI(theta / 2) // ZZ eigenvalue -1
	pr, pi := real(ePlus), imag(ePlus)
	mr, mi := real(eMinus), imag(eMinus)
	par.For(len(re), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r, m := re[i], im[i]
			if (i&ma != 0) == (i&mb != 0) {
				re[i] = r*pr - m*pi
				im[i] = r*pi + m*pr
			} else {
				re[i] = r*mr - m*mi
				im[i] = r*mi + m*mr
			}
		}
	})
}

// Apply executes one gate through the frozen kernels.
func (s *frozenState) Apply(g circuit.Gate) {
	switch g.Kind {
	case circuit.I, circuit.Measure:
	case circuit.CZ:
		s.applyCZ(g.Qubit, g.Qubit2)
	case circuit.CX:
		s.applyCX(g.Qubit, g.Qubit2)
	case circuit.RZZ:
		s.applyRZZ(g.Qubit, g.Qubit2, g.Theta)
	default:
		m, ok := gateMatrix1Q(g)
		if !ok {
			panic(fmt.Sprintf("qsim: unsupported gate kind %v", g.Kind))
		}
		s.apply1Q(g.Qubit, m[0], m[1], m[2], m[3])
	}
}

// AppendProbabilities appends the measurement distribution to dst.
func (s *frozenState) AppendProbabilities(dst []float64) []float64 {
	re, im := s.re, s.im
	start := len(dst)
	dst = frozenGrowFloat64(dst, len(re))
	p := dst[start:]
	par.For(len(re), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p[i] = re[i]*re[i] + im[i]*im[i]
		}
	})
	return dst
}

func frozenGrowFloat64(dst []float64, n int) []float64 {
	if tot := len(dst) + n; tot <= cap(dst) {
		return dst[:tot]
	}
	next := make([]float64, len(dst)+n)
	copy(next, dst)
	return next
}

type frozenTable struct {
	prob  []float64
	alias []int32
}

type frozenScratch struct {
	scaled       []float64
	small, large []int32
}

// newFrozenTable builds the table in O(N) from an (approximately
// normalized) distribution through scratch; spare, when non-nil,
// donates its prob/alias storage.
func newFrozenTable(p []float64, scratch *frozenScratch, spare *frozenTable) *frozenTable {
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
		t = &frozenTable{prob: make([]float64, n), alias: make([]int32, n)}
	} else {
		t.prob = t.prob[:n]
		t.alias = t.alias[:n]
	}
	scaled := frozenGrowFloat64(scratch.scaled[:0], n)
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

func (t *frozenTable) draw(rng *rand.Rand) int {
	i := rng.Intn(len(t.prob))
	if rng.Float64() < t.prob[i] {
		return i
	}
	return int(t.alias[i])
}

func (s *frozenState) ensureSampler() *frozenTable {
	t := s.sampler
	if t == nil {
		s.probScratch = s.AppendProbabilities(s.probScratch[:0])
		t = newFrozenTable(s.probScratch, &s.buildScratch, s.spareTable)
		s.spareTable = nil
		s.sampler = t
	}
	return t
}

// Sample is the frozen dense sampler.
func (s *frozenState) Sample(shots int, rng *rand.Rand) []uint64 {
	if shots <= 0 {
		return nil
	}
	t := s.ensureSampler()
	out := make([]uint64, shots)
	nblocks := (shots + sampleBlock - 1) / sampleBlock
	s.seedScratch = frozenAppendSeeds(s.seedScratch[:0], nblocks, rng)
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

func frozenAppendSeeds(seeds []int64, nblocks int, rng *rand.Rand) []int64 {
	for i := 0; i < nblocks; i++ {
		seeds = append(seeds, rng.Int63())
	}
	return seeds
}

// frozenSharded is the frozen two-level sharded sampler over a sharded
// state's shards.
type frozenSharded struct {
	shardBits    int
	re, im       [][]float64
	samplerValid bool
	top          *frozenTable
	sub          []*frozenTable
	topProbs     []float64
	probScratch  [][]float64
	seedScratch  []int64
	buildScratch []frozenScratch
}

func (s *frozenSharded) ensureSampler() {
	if s.samplerValid {
		return
	}
	numShards := len(s.re)
	if cap(s.sub) < numShards {
		s.sub = make([]*frozenTable, numShards)
		s.probScratch = make([][]float64, numShards)
		s.topProbs = make([]float64, numShards)
	}
	s.sub = s.sub[:numShards]
	s.probScratch = s.probScratch[:numShards]
	s.topProbs = s.topProbs[:numShards]
	groups := min(par.Workers(), numShards)
	if len(s.buildScratch) < groups {
		s.buildScratch = append(s.buildScratch, make([]frozenScratch, groups-len(s.buildScratch))...)
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
			s.sub[sh] = newFrozenTable(probs, scratch, s.sub[sh])
		}
	})
	s.top = newFrozenTable(s.topProbs, &s.buildScratch[0], s.top)
	s.samplerValid = true
}

// Sample is the frozen sharded sampler.
func (s *frozenSharded) Sample(shots int, rng *rand.Rand) []uint64 {
	if shots <= 0 {
		return nil
	}
	s.ensureSampler()
	out := make([]uint64, shots)
	nblocks := (shots + sampleBlock - 1) / sampleBlock
	s.seedScratch = frozenAppendSeeds(s.seedScratch[:0], nblocks, rng)
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

// frozenApply1QRealPairs is apply1QRealPairs before its block loops
// for strides 2 and 4, with butterflyReal's loop inlined.
func frozenApply1QRealPairs(re, im []float64, stride int, u [4]float64, lo, hi int) {
	u00, u01, u10, u11 := u[0], u[1], u[2], u[3]
	if stride == 1 {
		r := re[2*lo : 2*hi]
		if im == nil {
			for x := 0; x+1 < len(r); x += 2 {
				a0r, a1r := r[x], r[x+1]
				r[x] = float64(u00*a0r) + float64(u01*a1r)
				r[x+1] = float64(u10*a0r) + float64(u11*a1r)
			}
			return
		}
		m := im[2*lo : 2*hi]
		for x := 0; x+1 < len(r); x += 2 {
			a0r, a0i := r[x], m[x]
			a1r, a1i := r[x+1], m[x+1]
			r[x] = float64(u00*a0r) + float64(u01*a1r)
			m[x] = float64(u00*a0i) + float64(u01*a1i)
			r[x+1] = float64(u10*a0r) + float64(u11*a1r)
			m[x+1] = float64(u10*a0i) + float64(u11*a1i)
		}
		return
	}
	mask := stride - 1
	for k := lo; k < hi; {
		run := stride - k&mask
		if run > hi-k {
			run = hi - k
		}
		i := (k&^mask)<<1 | k&mask
		r0 := re[i:][:run]
		r1 := re[i+stride:][:run]
		if im == nil {
			for x := range r0 {
				v0, v1 := r0[x], r1[x]
				r0[x] = float64(u00*v0) + float64(u01*v1)
				r1[x] = float64(u10*v0) + float64(u11*v1)
			}
			k += run
			continue
		}
		m0 := im[i:][:run]
		m1 := im[i+stride:][:run]
		for x := 0; x < run; x++ {
			a0r, a0i := r0[x], m0[x]
			a1r, a1i := r1[x], m1[x]
			r0[x] = float64(u00*a0r) + float64(u01*a1r)
			m0[x] = float64(u00*a0i) + float64(u01*a1i)
			r1[x] = float64(u10*a0r) + float64(u11*a1r)
			m1[x] = float64(u10*a0i) + float64(u11*a1i)
		}
		k += run
	}
}

// frozenApplySignTermsChunk is applySignTermsChunk before the one-pass
// sweep: nested stride loops for every batch.
func frozenApplySignTermsChunk(re, im []float64, terms []signTerm, base int) {
	n := len(re)
	for ti := range terms {
		t := &terms[ti]
		sA, sB := t.sA, t.sB
		lut := t.lut
		switch {
		case lut == 0:
		case 1<<sA >= n:
			p := ((base >> sA) & 1) | (((base >> sB) & 1) << 1)
			if lut>>p&1 != 0 {
				frozenNegate(re, im, 0, n)
			}
		case 1<<sB >= n:
			l := (lut >> (2 * uint((base>>sB)&1))) & 3
			frozenNegateBit(re, im, sA, l&1 != 0, l>>1&1 != 0)
		case sA == sB:
			frozenNegateBit(re, im, sA, lut&1 != 0, lut>>3&1 != 0)
		case sB == sA+1 && lut&(lut-1) == 0:
			stepA, stepB := 1<<sA, 1<<sB
			p := uint8(0)
			for lut>>p&1 == 0 {
				p++
			}
			off := int(p&1)<<sA | int(p>>1)<<sB
			for b := off; b < n; b += stepB << 1 {
				frozenNegate(re, im, b, b+stepA)
			}
		default:
			stepA, stepB := 1<<sA, 1<<sB
			for p := uint8(0); p < 4; p++ {
				if lut>>p&1 == 0 {
					continue
				}
				offA := int(p&1) << sA
				offB := int(p>>1) << sB
				for bB := offB; bB < n; bB += stepB << 1 {
					for b := bB + offA; b < bB+stepB; b += stepA << 1 {
						frozenNegate(re, im, b, b+stepA)
					}
				}
			}
		}
	}
}

func frozenNegateBit(re, im []float64, sA uint, neg0, neg1 bool) {
	n := len(re)
	step := 1 << sA
	if neg0 {
		for b := 0; b < n; b += step << 1 {
			frozenNegate(re, im, b, b+step)
		}
	}
	if neg1 {
		for b := step; b < n; b += step << 1 {
			frozenNegate(re, im, b, b+step)
		}
	}
}

func frozenNegate(re, im []float64, lo, hi int) {
	if im == nil {
		for i := lo; i < hi; i++ {
			re[i] = -re[i]
		}
		return
	}
	for i := lo; i < hi; i++ {
		re[i] = -re[i]
		im[i] = -im[i]
	}
}
