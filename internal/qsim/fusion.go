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

// expIPair returns e^{−ix} and e^{ix} from one Sincos, bit for bit
// expI(−x) and expI(x) for every finite x: Sincos strips the sign
// first, so Sincos(−x) is (−sin x, cos x) (DESIGN.md §11.2).
func expIPair(x float64) (neg, pos complex128) {
	s, c := math.Sincos(x)
	return complex(c, -s), complex(c, s)
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

// fusedOp is one compiled operation. An opDiag's terms are
// fuser.terms[t0:t1].
type fusedOp struct {
	kind   opKind
	q, q2  int
	u      [4]complex128
	t0, t1 int
}

// fuser accumulates the fused program. It doubles as reusable scratch:
// reset recycles the ops slice, the term arena and the pending-matrix
// arrays, so steady-state fusion of same-shaped circuits allocates
// nothing.
type fuser struct {
	ops []fusedOp
	// terms is the term arena. Only the open batch takes new terms, and
	// it is always the newest batch, so its terms are the arena's tail.
	terms []diagTerm
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
	f.terms = f.terms[:0]
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

// mul returns x·y in the association order Go's complex128 multiply
// uses, with each product rounded before it is summed, so no GOARCH
// fuses a multiply-add into it (DESIGN.md §11.2).
func mul(x, y complex128) complex128 {
	xr, xi, yr, yi := real(x), imag(x), real(y), imag(y)
	return complex(float64(xr*yr)-float64(xi*yi), float64(xr*yi)+float64(xi*yr))
}

// matMul returns a·b for row-major 2×2 matrices {m00,m01,m10,m11}.
func matMul(a, b [4]complex128) [4]complex128 {
	return [4]complex128{
		mul(a[0], b[0]) + mul(a[1], b[2]), mul(a[0], b[1]) + mul(a[1], b[3]),
		mul(a[2], b[0]) + mul(a[3], b[2]), mul(a[2], b[1]) + mul(a[3], b[3]),
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
			f.addTerm(t, bit)
			return
		}
		f.openBatch(t, bit)
		return
	}
	op := fusedOp{kind: op1Q, q: q, u: p}
	if f.batch >= 0 && (f.batchQ|f.batchBlocked)&bit == 0 {
		f.ops = append(f.ops, fusedOp{})
		copy(f.ops[f.batch+1:], f.ops[f.batch:])
		f.ops[f.batch] = op
		f.batch++
		return
	}
	f.ops = append(f.ops, op)
	if f.batch >= 0 {
		f.batchBlocked |= bit
	}
}

// openBatch appends a fresh diagonal batch holding t.
func (f *fuser) openBatch(t diagTerm, qbits uint32) {
	f.terms = append(f.terms, t)
	f.batch = len(f.ops)
	f.ops = append(f.ops, fusedOp{kind: opDiag, t0: len(f.terms) - 1, t1: len(f.terms)})
	f.batchQ, f.batchBlocked = qbits, 0
}

// addTerm appends t to the open batch, whose terms end the arena.
func (f *fuser) addTerm(t diagTerm, qbits uint32) {
	f.terms = append(f.terms, t)
	f.ops[f.batch].t1 = len(f.terms)
	f.batchQ |= qbits
}

// addDiag routes a two-qubit diagonal gate into the open batch when its
// qubits are unblocked, else starts a new batch.
func (f *fuser) addDiag(t diagTerm, a, b int) {
	f.flush(a)
	f.flush(b)
	bits := uint32(1)<<a | uint32(1)<<b
	if f.batch >= 0 && f.batchBlocked&bits == 0 {
		f.addTerm(t, bits)
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
			e0, e1 := expIPair(g.Theta / 2)
			lo, hi := minMax(g.Qubit, g.Qubit2)
			f.addDiag(diagTerm{
				sA: lo, sB: hi,
				f: [4]complex128{e0, e1, e1, e0},
			}, g.Qubit, g.Qubit2)
		case circuit.CX:
			f.flush(g.Qubit)
			f.flush(g.Qubit2)
			f.ops = append(f.ops, fusedOp{kind: opCX, q: g.Qubit, q2: g.Qubit2})
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
// batch's terms classified into sign and phase terms. pre is the length
// of its product prefix: the leading run of op1Q ops on pairwise
// distinct qubits, which build writes in one pass (exec.go). real is
// the length of its real prefix: the leading run of ops that keep a
// real state real, an op1Q whose matrix passes matIsReal, an opCX, or
// an opDiag of sign terms alone; from |0…0⟩ those ops leave every
// imaginary part 0, so the executor runs them over re alone. The zero
// value is ready; compile recycles all storage, so re-compiling
// same-shaped circuits allocates nothing in steady state.
type program struct {
	fs     fuser
	ops    []fusedOp
	pre    int
	real   int
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
	var seen uint32
	p.pre = 0
	for p.pre < len(p.ops) && p.ops[p.pre].kind == op1Q && seen>>p.ops[p.pre].q&1 == 0 {
		seen |= 1 << p.ops[p.pre].q
		p.pre++
	}
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
		terms := p.fs.terms[p.ops[k].t0:p.ops[k].t1]
		for ti := range terms {
			t := &terms[ti]
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
	p.real = 0
	for p.real < len(p.ops) && p.keepsReal(p.real) {
		p.real++
	}
}

// keepsReal reports whether op i maps a state with real amplitudes to
// one with real amplitudes.
func (p *program) keepsReal(i int) bool {
	switch op := &p.ops[i]; op.kind {
	case op1Q:
		return matIsReal(&op.u)
	case opCX:
		return true
	default:
		return p.preps[i].phaseLen == 0
	}
}

// shared returns how many leading ops p and o have in common: equal
// kinds and qubits, and matrices and diagonal factors equal bit for bit.
func (p *program) shared(o *program) int {
	n := min(len(p.ops), len(o.ops))
	for i := 0; i < n; i++ {
		a, b := &p.ops[i], &o.ops[i]
		if a.kind != b.kind || a.q != b.q || a.q2 != b.q2 || !sameBits(a.u[:], b.u[:]) {
			return i
		}
		if a.kind != opDiag {
			continue
		}
		ta, tb := p.fs.terms[a.t0:a.t1], o.fs.terms[b.t0:b.t1]
		if len(ta) != len(tb) {
			return i
		}
		for j := range ta {
			if ta[j].sA != tb[j].sA || ta[j].sB != tb[j].sB || !sameBits(ta[j].f[:], tb[j].f[:]) {
				return i
			}
		}
	}
	return n
}

// sameBits reports whether a and b hold the same float bits.
func sameBits(a, b []complex128) bool {
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}
