package qsim

import "qtenon/internal/par"

// The chunk executor. Both statevector engines run every gate through
// it, Run as a compiled circuit and State.Apply as a one-gate program:
// program.run executes a program over chunks of 2^k amplitudes, chunk c
// holding basis states [c·2^k, (c+1)·2^k). State passes its
// 2^tileBits-amplitude cache tiles, which view its one contiguous array,
// and Sharded passes its separately allocated
// 2^DefaultShardBits-amplitude shards. A chunk's base index is a
// multiple of its length, so the low k bits of a basis index are its
// index inside the chunk, and the contiguous kernels run unmodified on
// a chunk (DESIGN.md §11.3, §13.1).
//
// An op is local when it writes only inside single chunks: every
// diagonal batch, a 1q matrix on a qubit below k, and a CX whose target
// is below k (a control at or above k only selects the chunks that
// flip). Each maximal run of local ops is one group, run as one par.Do
// job per chunk, so a chunk stays cache-resident for the whole group.
// Every other op runs alone between groups, over the chunk pairs its
// qubit at or above k selects. Grouping never reorders ops, and no
// kernel's arithmetic depends on k, so the amplitudes are the same bits
// at any chunk size and any worker count.

// tileBits sizes the dense engine's chunks: 2^12 amplitudes = 2 × 32 KiB
// of SoA floats, so a tile's re and im arrays together fit in a 64 KiB
// L1 slice with room for the matrix constants (DESIGN.md §11.3).
const tileBits = 12

// run executes ops [lo, hi) of the program on a state stored as chunks
// re[c], im[c] of 2^k amplitudes each. moveData selects how a CX with
// both qubits at or above k exchanges chunks: chunks that view one array
// trade contents, separately allocated chunks trade headers in O(1).
func (p *program) run(re, im [][]float64, k int, moveData bool, lo, hi int) {
	for i := lo; i < hi; {
		j := i
		for j < hi && p.ops[j].local(k) {
			j++
		}
		if j == i {
			p.ops[i].runGlobal(re, im, k, moveData)
			j++
		} else {
			p.runLocal(re, im, k, i, j)
		}
		i = j
	}
}

// build writes the state that the program's product prefix, ops
// [0, pre), leaves on |0…0⟩, as one par.Do job per chunk; an empty
// prefix writes |0…0⟩. Each prefix op acts on a qubit no earlier op
// touched, so the partner amplitude of every pair it updates is ±0, and
// the pair kernels' result reduces to one matrix entry times the
// amplitude: u00 where the op's qubit is 0, u10 where it is 1. The
// build multiplies those entries in op order with the kernels'
// arithmetic, so for finite matrices it equals running the prefix op by
// op up to the signs of zeros (DESIGN.md §11.2).
func (p *program) build(re, im [][]float64, k int) {
	ops := p.ops[:p.pre]
	if len(re) == 1 {
		buildChunk(re[0], im[0], ops, k, 0)
		return
	}
	par.Do(len(re), func(c int) { buildChunk(re[c], im[c], ops, k, c) })
}

// buildChunk writes chunk c of 2^k amplitudes. It starts with 1 at
// index 0; an op on a qubit below k doubles the support, the indices
// whose set bits are all prefix qubits seen so far, and consecutive ops
// on qubits at or above k scale it. Every amplitude outside the support
// is 0, and so is the whole chunk when its index sets a bit no prefix op
// acts on.
func buildChunk(r, m []float64, ops []fusedOp, k, c int) {
	low, high := 0, 0
	for i := range ops {
		if q := ops[i].q; q < k {
			low |= 1 << q
		} else {
			high |= 1 << (q - k)
		}
	}
	if c&^high != 0 || low != len(r)-1 {
		clear(r)
		clear(m)
		if c&^high != 0 {
			return
		}
	}
	r[0], m[0] = 1, 0
	support := 0
	for i := 0; i < len(ops); {
		if q := ops[i].q; q < k {
			double(r, m, support, 1<<q, &ops[i].u)
			support |= 1 << q
			i++
			continue
		}
		j := i + 1
		for j < len(ops) && ops[j].q >= k {
			j++
		}
		scale(r, m, support, ops[i:j], k, c)
		i = j
	}
}

// double applies u on the qubit of bit b, which every support index
// leaves clear: a[i|b] = u10·a[i], then a[i] = u00·a[i]. The support's
// indices are the submasks of support, visited in increasing order.
func double(r, m []float64, support, b int, u *[4]complex128) {
	if matIsReal(u) {
		u00, u10 := real(u[0]), real(u[2])
		for i := 0; ; i = (i - support) & support {
			ar, ai := r[i], m[i]
			r[i|b], m[i|b] = u10*ar, u10*ai
			r[i], m[i] = u00*ar, u00*ai
			if i == support {
				return
			}
		}
	}
	u00r, u00i := real(u[0]), imag(u[0])
	u10r, u10i := real(u[2]), imag(u[2])
	for i := 0; ; i = (i - support) & support {
		ar, ai := r[i], m[i]
		r[i|b] = float64(u10r*ar) - float64(u10i*ai)
		m[i|b] = float64(u10r*ai) + float64(u10i*ar)
		r[i] = float64(u00r*ar) - float64(u00i*ai)
		m[i] = float64(u00r*ai) + float64(u00i*ar)
		if i == support {
			return
		}
	}
}

// scale multiplies the support, in one sweep, by chunk c's entry of
// each op, all on distinct qubits at or above k, in op order: u00 when
// the chunk index's bit for the qubit is 0, u10 when it is 1.
func scale(r, m []float64, support int, ops []fusedOp, k, c int) {
	var fr, fi [ShardedMaxQubits]float64
	cplx := 0 // bit j set when op j's matrix takes the complex kernel
	for j := range ops {
		u := &ops[j].u
		e := u[c>>(ops[j].q-k)&1<<1]
		fr[j], fi[j] = real(e), imag(e)
		if !matIsReal(u) {
			cplx |= 1 << j
		}
	}
	n := len(ops)
	for i := 0; ; i = (i - support) & support {
		ar, ai := r[i], m[i]
		for j := 0; j < n; j++ {
			if cplx>>j&1 == 0 {
				ar, ai = fr[j]*ar, fr[j]*ai
			} else {
				ar, ai = float64(fr[j]*ar)-float64(fi[j]*ai), float64(fr[j]*ai)+float64(fi[j]*ar)
			}
		}
		r[i], m[i] = ar, ai
		if i == support {
			return
		}
	}
}

// local reports whether op writes only inside single chunks of 2^k
// amplitudes.
func (op *fusedOp) local(k int) bool {
	switch op.kind {
	case op1Q:
		return op.q < k
	case opCX:
		return op.q2 < k
	default:
		return true
	}
}

// runLocal runs ops [lo, hi), all local, as one par.Do job per chunk.
// Chunks are disjoint, so no two jobs write the same amplitude.
func (p *program) runLocal(re, im [][]float64, k, lo, hi int) {
	ops, preps := p.ops[lo:hi], p.preps[lo:hi]
	signs, phases := p.signs, p.phases
	par.Do(len(re), func(c int) {
		r, m := re[c], im[c]
		base := c << k
		for i := range ops {
			op := &ops[i]
			switch op.kind {
			case op1Q:
				// The chunk base is 2·stride-aligned, so the chunk's pairs
				// are exactly its pair indices [0, len/2).
				stride := 1 << op.q
				if matIsReal(&op.u) {
					u := [4]float64{real(op.u[0]), real(op.u[1]), real(op.u[2]), real(op.u[3])}
					apply1QRealPairs(r, m, stride, u, 0, len(r)>>1)
				} else {
					apply1QCmplxPairs(r, m, stride, &op.u, 0, len(r)>>1)
				}
			case opCX:
				if op.q < k {
					applyCXRange(r, m, 1<<op.q, 1<<op.q2, 0, len(r))
				} else if c>>(op.q-k)&1 != 0 {
					applyX(r, m, op.q2)
				}
			default:
				d := preps[i]
				applyPhaseTermsChunk(r, m, phases[d.phaseOff:d.phaseOff+d.phaseLen], base)
				applySignTermsChunk(r, m, signs[d.signOff:d.signOff+d.signLen], base)
			}
		}
	})
}

// runGlobal runs one op that couples chunks: a 1q matrix on qubit q ≥ k
// is a butterfly over the chunk pairs (c, c|2^(q−k)); a CX with a local
// control and a global target swaps the control-set amplitudes between
// the same pairs; a CX with both qubits global exchanges whole chunks.
// Each pair belongs to one par.Do index, so parallel pairs never
// overlap.
func (op *fusedOp) runGlobal(re, im [][]float64, k int, moveData bool) {
	switch {
	case op.kind == op1Q:
		bit := 1 << (op.q - k)
		par.Do(len(re)/2, func(i int) {
			c0 := pairLow(i, bit)
			butterfly(re[c0], im[c0], re[c0|bit], im[c0|bit], &op.u)
		})
	case op.q < k:
		bit := 1 << (op.q2 - k)
		par.Do(len(re)/2, func(i int) {
			c0 := pairLow(i, bit)
			swapWhereSet(re[c0], im[c0], re[c0|bit], im[c0|bit], op.q)
		})
	default:
		cbit, tbit := 1<<(op.q-k), 1<<(op.q2-k)
		if !moveData {
			for c := range re {
				if c&cbit != 0 && c&tbit == 0 {
					o := c | tbit
					re[c], re[o] = re[o], re[c]
					im[c], im[o] = im[o], im[c]
				}
			}
			return
		}
		par.Do(len(re)/2, func(i int) {
			c0 := pairLow(i, tbit)
			if c0&cbit == 0 {
				return
			}
			r0, m0 := re[c0], im[c0]
			r1, m1 := re[c0|tbit][:len(r0)], im[c0|tbit][:len(r0)]
			for j := range r0 {
				r0[j], r1[j] = r1[j], r0[j]
				m0[j], m1[j] = m1[j], m0[j]
			}
		})
	}
}

// pairLow returns the lower chunk of the i-th pair (c, c|bit): i with a
// zero inserted at bit's position.
func pairLow(i, bit int) int {
	low := bit - 1
	return (i&^low)<<1 | i&low
}

// butterfly applies u to the pairs (element j of chunk 0, element j of
// chunk 1): a 1q matrix on the qubit whose stride is the distance
// between the chunks. The inner loops are apply1QRealPairs' and
// apply1QCmplxPairs' float expressions verbatim, with the same
// real-matrix dispatch, so the arithmetic is the same bits.
func butterfly(re0, im0, re1, im1 []float64, u *[4]complex128) {
	n := len(re0)
	r0 := re0[:n]
	m0 := im0[:n]
	r1 := re1[:n]
	m1 := im1[:n]
	if matIsReal(u) {
		u00, u01 := real(u[0]), real(u[1])
		u10, u11 := real(u[2]), real(u[3])
		for x := 0; x < n; x++ {
			a0r, a0i := r0[x], m0[x]
			a1r, a1i := r1[x], m1[x]
			r0[x] = float64(u00*a0r) + float64(u01*a1r)
			m0[x] = float64(u00*a0i) + float64(u01*a1i)
			r1[x] = float64(u10*a0r) + float64(u11*a1r)
			m1[x] = float64(u10*a0i) + float64(u11*a1i)
		}
		return
	}
	u00r, u00i := real(u[0]), imag(u[0])
	u01r, u01i := real(u[1]), imag(u[1])
	u10r, u10i := real(u[2]), imag(u[2])
	u11r, u11i := real(u[3]), imag(u[3])
	for x := 0; x < n; x++ {
		a0r, a0i := r0[x], m0[x]
		a1r, a1i := r1[x], m1[x]
		r0[x] = (float64(u00r*a0r) - float64(u00i*a0i)) + (float64(u01r*a1r) - float64(u01i*a1i))
		m0[x] = (float64(u00r*a0i) + float64(u00i*a0r)) + (float64(u01r*a1i) + float64(u01i*a1r))
		r1[x] = (float64(u10r*a0r) - float64(u10i*a0i)) + (float64(u11r*a1r) - float64(u11i*a1i))
		m1[x] = (float64(u10r*a0i) + float64(u10i*a0r)) + (float64(u11r*a1i) + float64(u11i*a1r))
	}
}

// applyX flips the target qubit (below the chunk length) inside one
// chunk: the chunks whose index carries a global CX control bit. Pure
// swaps, hence exact.
func applyX(re, im []float64, target int) {
	mt := 1 << target
	for i := 0; i < len(re); i++ {
		if i&mt == 0 {
			j := i | mt
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
}

// swapWhereSet swaps element j between two chunks for every j with the
// control bit set: a CX whose control is below the chunk length and
// whose target bit lives in the chunk index. Pure swaps, hence exact.
func swapWhereSet(re0, im0, re1, im1 []float64, control int) {
	mc := 1 << control
	n := len(re0)
	r0 := re0[:n]
	m0 := im0[:n]
	r1 := re1[:n]
	m1 := im1[:n]
	for b := mc; b < n; b += mc << 1 {
		for j := b; j < b+mc; j++ {
			r0[j], r1[j] = r1[j], r0[j]
			m0[j], m1[j] = m1[j], m0[j]
		}
	}
}

// applyPhaseTermsChunk multiplies a chunk whose first amplitude has
// basis index base by each phase term's factors. The factor is constant
// over runs of 2^sA consecutive indices (sA ≤ sB by construction), and
// is selected by the basis index bits, so each run dispatches once:
// exact-1 factors skip the run, exactly-real factors take the
// two-multiply scale, and the rest the full complex multiply. A run at
// least as long as the chunk covers it with one factor. The
// specializations change only the sign of zeros relative to
// always-complex multiplication (DESIGN.md §11.2).
func applyPhaseTermsChunk(re, im []float64, terms []phaseTerm, base int) {
	n := len(re)
	for ti := range terms {
		t := &terms[ti]
		sA, sB := t.sA, t.sB
		step := 1 << sA
		if step > n {
			step = n // one run covers the chunk; factor from base below
		}
		for b := 0; b < n; b += step {
			g := base + b
			p := ((g >> sA) & 1) | (((g >> sB) & 1) << 1)
			cr, ci := t.fr[p], t.fi[p]
			end := b + step
			if ci == 0 {
				if cr == 1 {
					continue
				}
				for j := b; j < end; j++ {
					re[j] *= cr
					im[j] *= cr
				}
				continue
			}
			for j := b; j < end; j++ {
				r, m := re[j], im[j]
				re[j] = float64(r*cr) - float64(m*ci)
				im[j] = float64(r*ci) + float64(m*cr)
			}
		}
	}
}

// applySignTermsChunk applies pure ±1 terms to a chunk whose first
// amplitude has basis index base. Bits at or above the chunk length are
// constant across the chunk and folded out of the lut (selecting a half,
// or a single negate/skip decision); each negative pattern of the bits
// inside the chunk is visited directly by nested stride loops, so a CZ
// negates exactly a quarter of the amplitudes with no per-run factor
// lookup and no complex arithmetic.
func applySignTermsChunk(re, im []float64, terms []signTerm, base int) {
	n := len(re)
	for ti := range terms {
		t := &terms[ti]
		sA, sB := t.sA, t.sB
		lut := t.lut
		switch {
		case lut == 0:
			// No negative patterns — an all-ones factor table (e.g. an
			// RZZ bound to θ=0) is a no-op.
		case 1<<sA >= n:
			// Both bits constant (sA ≤ sB): the whole chunk shares one
			// factor pattern.
			p := ((base >> sA) & 1) | (((base >> sB) & 1) << 1)
			if lut>>p&1 != 0 {
				for j := 0; j < n; j++ {
					re[j] = -re[j]
					im[j] = -im[j]
				}
			}
		case 1<<sB >= n:
			// Bit sB constant; select its lut half and sweep bit sA.
			l := (lut >> (2 * uint((base>>sB)&1))) & 3
			negateBit(re, im, sA, l&1 != 0, l>>1&1 != 0)
		case sA == sB:
			// Single-bit term: only patterns 0 (bit clear) and 3 (set)
			// occur.
			negateBit(re, im, sA, lut&1 != 0, lut>>3&1 != 0)
		case sB == sA+1 && lut&(lut-1) == 0:
			// Adjacent bits, single negative pattern — the CZ brick
			// case: the inner stride loop has exactly one run per outer
			// block, so flatten to one loop.
			stepA, stepB := 1<<sA, 1<<sB
			p := uint8(0)
			for lut>>p&1 == 0 {
				p++
			}
			off := int(p&1)<<sA | int(p>>1)<<sB
			for b := off; b < n; b += stepB << 1 {
				for i := b; i < b+stepA; i++ {
					re[i] = -re[i]
					im[i] = -im[i]
				}
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
						for i := b; i < b+stepA; i++ {
							re[i] = -re[i]
							im[i] = -im[i]
						}
					}
				}
			}
		}
	}
}

// negateBit negates a chunk's amplitudes whose bit sA (below the chunk
// length) is clear (neg0) and/or set (neg1).
func negateBit(re, im []float64, sA uint, neg0, neg1 bool) {
	n := len(re)
	step := 1 << sA
	if neg0 {
		for b := 0; b < n; b += step << 1 {
			for i := b; i < b+step; i++ {
				re[i] = -re[i]
				im[i] = -im[i]
			}
		}
	}
	if neg1 {
		for b := step; b < n; b += step << 1 {
			for i := b; i < b+step; i++ {
				re[i] = -re[i]
				im[i] = -im[i]
			}
		}
	}
}
