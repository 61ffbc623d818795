package qsim

import (
	"fmt"
	"math/cmplx"

	"qtenon/internal/circuit"
	"qtenon/internal/par"
)

// expI returns e^{ix}.
func expI(x float64) complex128 { return cmplx.Exp(complex(0, x)) }

func panicUnsupported(g circuit.Gate) {
	panic(fmt.Sprintf("qsim: unsupported gate kind %v", g.Kind))
}

// Gate fusion. Run compiles a gate list into a shorter sequence of fused
// operations before touching the statevector:
//
//   - Runs of single-qubit gates on one qubit fold into a single 2×2
//     matrix (one amplitude sweep instead of one per gate). Because
//     single-qubit gates on distinct qubits commute, the folding window
//     for qubit q extends until a multi-qubit gate touches q, not merely
//     until the next gate in program order.
//   - Diagonal gates (CZ, RZZ, and single-qubit runs that reduce to a
//     diagonal matrix, i.e. Z/S/T/RZ chains) batch into one phase sweep
//     that multiplies each amplitude by every applicable phase factor in
//     a single pass over the array.
//
// Commuting reorderings change floating-point evaluation order, so fused
// execution matches gate-by-gate execution to ~1e-12 rather than
// bit-exactly; the fusion_test property test pins that bound. The fused
// program depends only on the gate list — never on worker count — so
// results remain deterministic across GOMAXPROCS.
//
// Execution is cache-blocked (DESIGN.md §11.3): consecutive fused ops
// whose amplitude coupling fits inside a tile of tileAmps amplitudes are
// grouped, and the whole group is applied tile by tile, so a tile's two
// 32 KiB float arrays stay L1/L2-resident across the group instead of
// each op streaming the full statevector through the cache.

// tileAmps is the cache tile: 4096 amplitudes = 2 × 32 KiB of SoA
// floats, sized so a tile's re and im arrays together fit comfortably in
// a 64 KiB L1 slice with room for the matrix constants (DESIGN.md
// §11.3). It must divide par's chunk size (1<<13) so tile boundaries are
// identical whether a chunk runs inline or on a worker — tiling, like
// fusion, never depends on worker count.
const tileAmps = 1 << 12

// diagTerm is one factor of a batched phase sweep. Every diagonal gate
// reduces to the same branchless form: amplitude i is multiplied by
// f[bitA | bitB<<1] where bitA = (i>>sA)&1 and bitB = (i>>sB)&1.
//
//   - diagonal 1q matrix on q: sA = sB = q, f = {f0, f1, f0, f1}
//   - CZ(a,b):                 f = {1, 1, 1, -1}
//   - RZZ(a,b):                f = {f0, f1, f1, f0} (equal bits → f0)
//
// Each table is symmetric under swapping its two bits, so construction
// orders sA ≤ sB; the executor exploits that to hoist the factor out of
// runs of 2^sA consecutive indices.
type diagTerm struct {
	sA, sB int
	f      [4]complex128
}

// OpKind distinguishes the three fused-operation shapes a compiled
// program contains.
type OpKind uint8

// The fused-op kinds.
const (
	Op1Q OpKind = iota
	OpCX
	OpDiag
)

// fusedOp is one compiled operation.
type fusedOp struct {
	kind  OpKind
	q, q2 int
	u     [4]complex128
	terms []diagTerm
}

// fuser accumulates the fused program. It doubles as reusable scratch:
// reset recycles the ops slice (including retired per-op term storage)
// and the pending-matrix arrays, so steady-state fusion of same-shaped
// circuits allocates nothing.
type fuser struct {
	ops []fusedOp
	// pendM/pendV hold the not-yet-emitted single-qubit matrix per qubit
	// (value + valid flag, so latching a matrix never allocates).
	pendM [][4]complex128
	pendV []bool
	// batch indexes the open diagonal batch in ops, -1 when none.
	batch int
	// batchQ marks qubits the open batch acts on; batchBlocked marks
	// qubits touched by operations emitted after the batch. A new term
	// on a blocked qubit cannot execute at the batch's position.
	batchQ, batchBlocked uint32
}

// reset prepares the fuser for a circuit over nq qubits, keeping storage.
func (f *fuser) reset(nq int) {
	f.ops = f.ops[:0]
	if cap(f.pendM) < nq {
		f.pendM = make([][4]complex128, nq)
		f.pendV = make([]bool, nq)
	}
	f.pendM = f.pendM[:nq]
	f.pendV = f.pendV[:nq]
	for i := range f.pendV {
		f.pendV[i] = false
	}
	f.batch = -1
	f.batchQ, f.batchBlocked = 0, 0
}

// appendOp appends a term-free op (Op1Q, OpCX, or a placeholder),
// reusing slice capacity like append.
func (f *fuser) appendOp(op fusedOp) {
	n := len(f.ops)
	if n < cap(f.ops) {
		f.ops = f.ops[:n+1]
		f.ops[n] = op
		return
	}
	f.ops = append(f.ops, op)
}

// matMul returns a·b for row-major 2×2 matrices {m00,m01,m10,m11}.
func matMul(a, b [4]complex128) [4]complex128 {
	return [4]complex128{
		a[0]*b[0] + a[1]*b[2], a[0]*b[1] + a[1]*b[3],
		a[2]*b[0] + a[3]*b[2], a[2]*b[1] + a[3]*b[3],
	}
}

// isDiagonal gates the batched diagonal-sweep fast path. The exact ==0
// test is intentional: only matrices whose off-diagonal entries are
// bit-for-bit zero may take it, so the check must not widen under a
// tolerance (a near-diagonal matrix through the diagonal kernel would
// silently drop its off-diagonal amplitude flow).
func isDiagonal(m [4]complex128) bool { return m[1] == 0 && m[2] == 0 }

// merge1Q folds a single-qubit matrix into the qubit's pending run.
func (f *fuser) merge1Q(q int, m [4]complex128) {
	if f.pendV[q] {
		f.pendM[q] = matMul(m, f.pendM[q])
		return
	}
	f.pendM[q] = m
	f.pendV[q] = true
}

// flush emits qubit q's pending matrix, if any. Placement rules, each
// justified by commutation with everything it is reordered across:
//
//   - A diagonal pending joins the open batch as a phase term when q is
//     not blocked (terms evaluate in order within the sweep, and no op
//     after the batch touches q).
//   - A diagonal pending with no usable batch opens one, so trailing
//     rotation-layer chains still share a sweep.
//   - A non-diagonal pending is inserted just before the open batch when
//     the batch and everything after it avoid q, keeping the batch
//     extendable; otherwise it is appended (and blocks q).
func (f *fuser) flush(q int) {
	if !f.pendV[q] {
		return
	}
	p := f.pendM[q]
	f.pendV[q] = false
	bit := uint32(1) << q
	if isDiagonal(p) {
		t := diagTerm{sA: q, sB: q, f: [4]complex128{p[0], p[3], p[0], p[3]}}
		if f.batch >= 0 && f.batchBlocked&bit == 0 {
			f.ops[f.batch].terms = append(f.ops[f.batch].terms, t)
			f.batchQ |= bit
			return
		}
		f.openBatch(t, bit)
		return
	}
	op := fusedOp{kind: Op1Q, q: q, u: p}
	if f.batch >= 0 && (f.batchQ|f.batchBlocked)&bit == 0 {
		f.appendOp(fusedOp{})
		copy(f.ops[f.batch+1:], f.ops[f.batch:])
		f.ops[f.batch] = op
		f.batch++
		return
	}
	f.appendOp(op)
	if f.batch >= 0 {
		f.batchBlocked |= bit
	}
}

// openBatch appends a fresh diagonal batch holding t. When the ops
// slice's capacity covers the new slot, the retired op there (from a
// previous fuse through this scratch) donates its term storage, so
// re-fusing same-shaped circuits allocates no term slices.
func (f *fuser) openBatch(t diagTerm, qbits uint32) {
	n := len(f.ops)
	if n < cap(f.ops) {
		f.ops = f.ops[:n+1]
		terms := append(f.ops[n].terms[:0], t)
		f.ops[n] = fusedOp{kind: OpDiag, terms: terms}
	} else {
		f.ops = append(f.ops, fusedOp{kind: OpDiag, terms: []diagTerm{t}})
	}
	f.batch = n
	f.batchQ, f.batchBlocked = qbits, 0
}

// addDiag routes a two-qubit diagonal gate into the open batch when its
// qubits are unblocked, else starts a new batch.
func (f *fuser) addDiag(t diagTerm, a, b int) {
	f.flush(a)
	f.flush(b)
	bits := uint32(1)<<a | uint32(1)<<b
	if f.batch >= 0 && f.batchBlocked&bits == 0 {
		f.ops[f.batch].terms = append(f.ops[f.batch].terms, t)
		f.batchQ |= bits
		return
	}
	f.openBatch(t, bits)
}

// fuse compiles a bound gate list into fused operations. Measure and
// explicit identity gates are dropped (Run samples the pre-measurement
// state, matching Apply's semantics). f is reusable scratch (nil for a
// one-shot fuse); the returned slice aliases its storage and is valid
// until the next fuse through the same scratch.
func fuse(gates []circuit.Gate, f *fuser) []fusedOp {
	maxQ := 0
	for _, g := range gates {
		if g.Qubit > maxQ {
			maxQ = g.Qubit
		}
		if g.Kind.Arity() == 2 && g.Qubit2 > maxQ {
			maxQ = g.Qubit2
		}
	}
	if f == nil {
		f = &fuser{}
	}
	f.reset(maxQ + 1)
	for _, g := range gates {
		switch g.Kind {
		case circuit.I, circuit.Measure:
		case circuit.CZ:
			lo, hi := minMax(g.Qubit, g.Qubit2)
			f.addDiag(diagTerm{
				sA: lo, sB: hi,
				f: [4]complex128{1, 1, 1, -1},
			}, g.Qubit, g.Qubit2)
		case circuit.RZZ:
			e0, e1 := expI(-g.Theta/2), expI(g.Theta/2)
			lo, hi := minMax(g.Qubit, g.Qubit2)
			f.addDiag(diagTerm{
				sA: lo, sB: hi,
				f: [4]complex128{e0, e1, e1, e0},
			}, g.Qubit, g.Qubit2)
		case circuit.CX:
			f.flush(g.Qubit)
			f.flush(g.Qubit2)
			f.appendOp(fusedOp{kind: OpCX, q: g.Qubit, q2: g.Qubit2})
			if f.batch >= 0 {
				f.batchBlocked |= uint32(1)<<g.Qubit | uint32(1)<<g.Qubit2
			}
		default:
			m, ok := gateMatrix1Q(g)
			if !ok {
				// Mirror Apply's behaviour for unknown kinds.
				panicUnsupported(g)
			}
			f.merge1Q(g.Qubit, m)
		}
	}
	for q := range f.pendV {
		f.flush(q)
	}
	return f.ops
}

func minMax(a, b int) (int, int) {
	if a > b {
		return b, a
	}
	return a, b
}

// --- Tiled execution ----------------------------------------------------

// opTileable reports whether an op's amplitude coupling is contained in
// a tileAmps-aligned tile: a 1q op pairs i with i+2^q (needs 2^(q+1) ≤
// tileAmps), a CX pairs i with i|2^target (needs 2^target < tileAmps),
// and a diagonal sweep is elementwise (always tileable).
func opTileable(op *fusedOp) bool {
	switch op.kind {
	case Op1Q:
		return 1<<(op.q+1) <= tileAmps
	case OpCX:
		return 1<<op.q2 < tileAmps
	default:
		return true
	}
}

// signTerm is a diagTerm whose four factors are all exactly ±1 (CZ and
// Z-like chains). Bit p of lut is set when f[p] = −1, so the term's
// whole effect is a conditional negation — no complex arithmetic at all.
type signTerm struct {
	sA, sB uint
	lut    uint8
}

// phaseTerm is a general diagTerm with the complex factors pre-split
// into float components for the SoA kernels.
type phaseTerm struct {
	sA, sB uint
	fr, fi [4]float64
}

// diagPrep indexes one OpDiag's classified terms inside execScratch's
// flat arrays.
type diagPrep struct {
	signOff, signLen   int
	phaseOff, phaseLen int
}

// execScratch is the tiled executor's reusable working memory: the
// classified diagonal terms of the current op group. It never escapes
// the State.
type execScratch struct {
	preps  []diagPrep
	signs  []signTerm
	phases []phaseTerm
}

// termIsSign classifies a diagonal factor table: a term is a pure sign
// term only when every factor is bit-for-bit ±1. Exact comparison is
// required — a factor merely close to ±1 must take the phase path or the
// sweep's numerics would change.
func termIsSign(f *[4]complex128) (lut uint8, ok bool) {
	for p := 0; p < 4; p++ {
		if imag(f[p]) != 0 {
			return 0, false
		}
		switch real(f[p]) {
		case 1:
		case -1:
			lut |= 1 << p
		default:
			return 0, false
		}
	}
	return lut, true
}

// prepare classifies every OpDiag in the group into sign and phase
// terms, preserving relative phase-term order. Reordering the exact ±1
// sign factors after the phase factors is safe: multiplication by ±1 is
// exact, so it commutes bit-for-bit with the other multiplies (up to the
// sign of zeros, which no probability or expectation observes —
// DESIGN.md §11.2).
func (x *execScratch) prepare(ops []fusedOp) []diagPrep {
	if cap(x.preps) < len(ops) {
		x.preps = make([]diagPrep, len(ops))
	}
	x.preps = x.preps[:len(ops)]
	x.signs = x.signs[:0]
	x.phases = x.phases[:0]
	for k := range ops {
		if ops[k].kind != OpDiag {
			x.preps[k] = diagPrep{}
			continue
		}
		p := diagPrep{signOff: len(x.signs), phaseOff: len(x.phases)}
		for ti := range ops[k].terms {
			t := &ops[k].terms[ti]
			if lut, ok := termIsSign(&t.f); ok {
				x.signs = append(x.signs, signTerm{sA: uint(t.sA), sB: uint(t.sB), lut: lut})
				continue
			}
			pt := phaseTerm{sA: uint(t.sA), sB: uint(t.sB)}
			for p := 0; p < 4; p++ {
				pt.fr[p] = real(t.f[p])
				pt.fi[p] = imag(t.f[p])
			}
			x.phases = append(x.phases, pt)
		}
		p.signLen = len(x.signs) - p.signOff
		p.phaseLen = len(x.phases) - p.phaseOff
		x.preps[k] = p
	}
	return x.preps
}

// applyFused executes a compiled program. Consecutive tileable ops run
// as one cache-blocked group; ops whose coupling exceeds a tile (high-
// qubit 1q/CX on large registers) run as full-array sweeps between
// groups. Grouping never reorders ops, so results are identical to
// op-at-a-time execution.
func (s *State) applyFused(ops []fusedOp) {
	i := 0
	for i < len(ops) {
		j := i
		for j < len(ops) && opTileable(&ops[j]) {
			j++
		}
		if j > i {
			s.applyTiled(ops[i:j])
			i = j
			continue
		}
		op := &ops[i]
		switch op.kind {
		case Op1Q:
			s.apply1Q(op.q, op.u[0], op.u[1], op.u[2], op.u[3])
		case OpCX:
			s.applyCX(op.q, op.q2)
		}
		i++
	}
}

// applyTiled executes a group of tileable ops tile by tile: each
// tileAmps-aligned tile has every op of the group applied to it before
// the sweep moves on, so the tile's SoA arrays stay cache-resident
// across the whole group. par chunks are multiples of tileAmps, so tile
// boundaries — like everything else in execution — are independent of
// worker count.
func (s *State) applyTiled(ops []fusedOp) {
	s.invalidate()
	preps := s.execScratch.prepare(ops)
	signs, phases := s.execScratch.signs, s.execScratch.phases
	re, im := s.re, s.im
	par.For(len(re), func(lo, hi int) {
		for base := lo; base < hi; base += tileAmps {
			end := base + tileAmps
			if end > hi {
				end = hi
			}
			for k := range ops {
				op := &ops[k]
				switch op.kind {
				case Op1Q:
					stride := 1 << op.q
					// base is 2·stride-aligned, so the tile's pairs are
					// exactly pair indices [base/2, end/2).
					if matIsReal(&op.u) {
						r := [4]float64{real(op.u[0]), real(op.u[1]), real(op.u[2]), real(op.u[3])}
						apply1QRealPairs(re, im, stride, r, base>>1, end>>1)
					} else {
						apply1QCmplxPairs(re, im, stride, &op.u, base>>1, end>>1)
					}
				case OpCX:
					applyCXRange(re, im, 1<<op.q, 1<<op.q2, base, end)
				case OpDiag:
					p := preps[k]
					applyPhaseTermsRange(re, im, phases[p.phaseOff:p.phaseOff+p.phaseLen], base, end)
					applySignTermsRange(re, im, signs[p.signOff:p.signOff+p.signLen], base, end)
				}
			}
		}
	})
}

// applyPhaseTermsRange multiplies amplitudes [lo, hi) by each phase
// term's factors. The factor is constant over runs of 2^sA consecutive
// indices (sA ≤ sB by construction, and lo is run-aligned or the range
// sits inside one run), so each run dispatches once: exact-1 factors
// skip the run, exactly-real factors take the two-multiply scale, and
// the rest the full complex multiply. The specializations change only
// the sign of zeros relative to always-complex multiplication
// (DESIGN.md §11.2).
func applyPhaseTermsRange(re, im []float64, terms []phaseTerm, lo, hi int) {
	for ti := range terms {
		t := &terms[ti]
		sA, sB := t.sA, t.sB
		step := 1 << sA
		for base := lo; base < hi; base += step {
			p := ((base >> sA) & 1) | (((base >> sB) & 1) << 1)
			cr, ci := t.fr[p], t.fi[p]
			end := base + step
			if end > hi {
				end = hi
			}
			if ci == 0 {
				if cr == 1 {
					continue
				}
				for i := base; i < end; i++ {
					re[i] *= cr
					im[i] *= cr
				}
				continue
			}
			for i := base; i < end; i++ {
				r, m := re[i], im[i]
				re[i] = r*cr - m*ci
				im[i] = r*ci + m*cr
			}
		}
	}
}

// applySignTermsRange applies pure ±1 terms over [lo, hi): each negative
// lut pattern is visited directly by nested stride loops, so a CZ
// negates exactly a quarter of the amplitudes with no per-run factor
// lookup and no complex arithmetic. lo must be aligned to
// min(2^(sB+1), hi−lo) and hi−lo must be a power of two or end the
// array; tile and chunk bounds guarantee both.
func applySignTermsRange(re, im []float64, terms []signTerm, lo, hi int) {
	for ti := range terms {
		t := &terms[ti]
		sA, sB := t.sA, t.sB
		lut := t.lut
		if lut == 0 {
			// No negative patterns — an all-ones factor table (e.g. an
			// RZZ bound to θ=0) is a no-op.
			continue
		}
		if sA == sB {
			// Single-bit term: only patterns 0 (bit clear) and 3 (set)
			// occur.
			negateBit(re, im, sA, lut&1 != 0, lut>>3&1 != 0, lo, hi)
			continue
		}
		stepB := 1 << sB
		if stepB >= hi-lo {
			// Bit sB is constant across the range; select its half of
			// the lut and fall back to the single-bit sweep on sA.
			l := (lut >> (2 * uint((lo>>sB)&1))) & 3
			negateBit(re, im, sA, l&1 != 0, l>>1&1 != 0, lo, hi)
			continue
		}
		stepA := 1 << sA
		if sB == sA+1 && lut&(lut-1) == 0 {
			// Adjacent bits, single negative pattern — the CZ brick
			// case: the inner stride loop has exactly one run per outer
			// block, so flatten to one loop.
			p := uint8(0)
			for lut>>p&1 == 0 {
				p++
			}
			off := int(p&1)<<sA | int(p>>1)<<sB
			for b := lo + off; b < hi; b += stepB << 1 {
				for i := b; i < b+stepA; i++ {
					re[i] = -re[i]
					im[i] = -im[i]
				}
			}
			continue
		}
		for p := uint8(0); p < 4; p++ {
			if lut>>p&1 == 0 {
				continue
			}
			offA := int(p&1) << sA
			offB := int(p>>1) << sB
			for bB := lo + offB; bB < hi; bB += stepB << 1 {
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

// negateBit negates the [lo, hi) amplitudes whose bit sA is clear
// (neg0) and/or set (neg1). lo must be aligned to min(2^(sA+1), hi−lo).
func negateBit(re, im []float64, sA uint, neg0, neg1 bool, lo, hi int) {
	step := 1 << sA
	if step >= hi-lo {
		set := (lo>>sA)&1 != 0
		if (set && neg1) || (!set && neg0) {
			for i := lo; i < hi; i++ {
				re[i] = -re[i]
				im[i] = -im[i]
			}
		}
		return
	}
	if neg0 {
		for b := lo; b < hi; b += step << 1 {
			for i := b; i < b+step; i++ {
				re[i] = -re[i]
				im[i] = -im[i]
			}
		}
	}
	if neg1 {
		for b := lo + step; b < hi; b += step << 1 {
			for i := b; i < b+step; i++ {
				re[i] = -re[i]
				im[i] = -im[i]
			}
		}
	}
}
