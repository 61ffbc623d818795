package qsim

import (
	"fmt"
	"math"

	"qtenon/internal/circuit"
)

// expI returns e^{ix}, bit for bit what cmplx.Exp(complex(0, x))
// returns: with a zero real part it scales math.Sincos(x) by Exp(0) = 1.
func expI(x float64) complex128 {
	s, c := math.Sincos(x)
	return complex(c, s)
}

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
// results remain deterministic across GOMAXPROCS. Both statevector
// engines run the compiled program through the chunk executor
// (exec.go).

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

// opKind distinguishes the three fused-operation shapes a compiled
// program contains.
type opKind uint8

const (
	op1Q opKind = iota
	opCX
	opDiag
)

// fusedOp is one compiled operation.
type fusedOp struct {
	kind  opKind
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

// appendOp appends a term-free op (op1Q, opCX, or a placeholder),
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
	op := fusedOp{kind: op1Q, q: q, u: p}
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
		f.ops[n] = fusedOp{kind: opDiag, terms: terms}
	} else {
		f.ops = append(f.ops, fusedOp{kind: opDiag, terms: []diagTerm{t}})
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
// explicit identity gates are dropped (Run and Apply leave readout to
// Sample and MeasureQubit). f is reusable scratch; the returned slice
// aliases its storage and is valid until the next fuse through the same
// scratch.
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
			f.appendOp(fusedOp{kind: opCX, q: g.Qubit, q2: g.Qubit2})
			if f.batch >= 0 {
				f.batchBlocked |= uint32(1)<<g.Qubit | uint32(1)<<g.Qubit2
			}
		default:
			m, ok := gateMatrix1Q(g)
			if !ok {
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

// --- Diagonal-term classification -------------------------------------

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

// diagPrep indexes one opDiag's classified terms inside program's flat
// arrays.
type diagPrep struct {
	signOff, signLen   int
	phaseOff, phaseLen int
}

// program is a compiled circuit: the fused ops, with every diagonal
// batch's terms classified into sign and phase terms. The zero value is
// ready; compile recycles all storage, so re-compiling same-shaped
// circuits allocates nothing in steady state.
type program struct {
	fs     fuser
	ops    []fusedOp
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

// compile fuses a bound gate list and classifies every opDiag into sign
// and phase terms, preserving relative phase-term order. Reordering the
// exact ±1 sign factors after the phase factors is safe: multiplication
// by ±1 is exact, so it commutes bit-for-bit with the other multiplies
// (up to the sign of zeros, which no probability or expectation
// observes — DESIGN.md §11.2). The program is valid until the next
// compile.
func (p *program) compile(gates []circuit.Gate) {
	p.ops = fuse(gates, &p.fs)
	if cap(p.preps) < len(p.ops) {
		p.preps = make([]diagPrep, len(p.ops))
	}
	p.preps = p.preps[:len(p.ops)]
	p.signs = p.signs[:0]
	p.phases = p.phases[:0]
	for k := range p.ops {
		if p.ops[k].kind != opDiag {
			p.preps[k] = diagPrep{}
			continue
		}
		d := diagPrep{signOff: len(p.signs), phaseOff: len(p.phases)}
		for ti := range p.ops[k].terms {
			t := &p.ops[k].terms[ti]
			if lut, ok := termIsSign(&t.f); ok {
				p.signs = append(p.signs, signTerm{sA: uint(t.sA), sB: uint(t.sB), lut: lut})
				continue
			}
			pt := phaseTerm{sA: uint(t.sA), sB: uint(t.sB)}
			for j := 0; j < 4; j++ {
				pt.fr[j] = real(t.f[j])
				pt.fi[j] = imag(t.f[j])
			}
			p.phases = append(p.phases, pt)
		}
		d.signLen = len(p.signs) - d.signOff
		d.phaseLen = len(p.phases) - d.phaseOff
		p.preps[k] = d
	}
}
