package qsim

import (
	"math/bits"

	"qtenon/internal/par"
)

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
//
// An op before the end of the program's real prefix finds every
// imaginary part ±0, as the build or the checkpoint wrote it, and
// leaves it so: the executor passes the real pair kernel, the real
// butterfly and the sign sweeps a nil im, and they sweep re alone
// (DESIGN.md §11.3). Those kernels update re and im independently, so
// skipping im leaves re's bits as they were. The CX swaps do no
// arithmetic and keep both arrays.

// tileBits sizes the dense engine's chunks: 2^12 amplitudes = 2 × 32 KiB
// of SoA floats, so a tile's re and im arrays together fit in a 64 KiB
// L1 slice with room for the matrix constants (DESIGN.md §11.3).
const tileBits = 12

// chunks is an engine's state as the executor sees it: re[c] and im[c]
// hold chunk c's 2^k amplitudes. moveData selects how a CX with both
// qubits at or above k exchanges chunks: chunks that view one array
// trade contents, separately allocated chunks trade headers in O(1).
//
// The rest is the job of the current call, which the job bodies read:
// its program and its ops [lo, hi). The bodies' function values are
// made once, by newChunks, and do runs them, so no call allocates a
// closure.
type chunks struct {
	re, im   [][]float64
	k        int
	moveData bool

	p                           *program
	lo, hi                      int
	groupJob, pairJob, buildJob func(int)
}

// newChunks returns the executor's view of chunks re and im, with its
// job bodies' function values made.
func newChunks(re, im [][]float64, k int, moveData bool) *chunks {
	x := &chunks{re: re, im: im, k: k, moveData: moveData}
	x.groupJob, x.pairJob, x.buildJob = x.group, x.pair, x.buildChunk
	return x
}

// do runs job(i) for every i in [0, n): directly for one index, which
// a one-chunk state's jobs always are, else through par.Do.
func do(n int, job func(int)) {
	if n == 1 {
		job(0)
		return
	}
	par.Do(n, job)
}

// run executes ops [lo, hi) of the program on x's chunks.
func (p *program) run(x *chunks, lo, hi int) {
	x.p = p
	for i := lo; i < hi; {
		j := i
		for j < hi && p.ops[j].local(x.k) {
			j++
		}
		if j > i {
			x.lo, x.hi = i, j
			do(len(x.re), x.groupJob)
		} else {
			x.runGlobal(i)
			j++
		}
		i = j
	}
}

// imOf returns the imaginary array that op i's real pair kernel,
// butterfly or sign sweep updates: none before the real prefix ends, m
// after.
func (p *program) imOf(i int, m []float64) []float64 {
	if i < p.real {
		return nil
	}
	return m
}

// build writes the state that the program's product prefix, ops
// [0, pre), leaves on |0…0⟩, as one job per chunk; an empty prefix
// writes |0…0⟩. Each prefix op acts on a qubit no earlier op touched,
// so the partner amplitude of every pair it updates is ±0, and the pair
// kernels' result reduces to one matrix entry times the amplitude: u00
// where the op's qubit is 0, u10 where it is 1. The build multiplies
// those entries in op order with the kernels' arithmetic, so for finite
// matrices it equals running the prefix op by op up to the signs of
// zeros (DESIGN.md §11.2).
func (p *program) build(x *chunks) {
	x.p = p
	do(len(x.re), x.buildJob)
}

// buildChunk writes chunk c. It starts with 1 at index 0; an op on a
// qubit below k doubles the support, the indices whose set bits are all
// prefix qubits seen so far, and consecutive ops on qubits at or above
// k scale it. Every amplitude outside the support is 0, and so is the
// whole chunk when its index sets a bit no prefix op acts on.
func (x *chunks) buildChunk(c int) {
	ops, k := x.p.ops[:x.p.pre], x.k
	r, m := x.re[c], x.im[c]
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

// group runs ops [lo, hi), all local, on chunk c. Chunks are disjoint,
// so no two jobs write the same amplitude.
func (x *chunks) group(c int) {
	p, k := x.p, x.k
	r, m := x.re[c], x.im[c]
	base := c << k
	for i := x.lo; i < x.hi; i++ {
		op := &p.ops[i]
		switch op.kind {
		case op1Q:
			// The chunk base is 2·stride-aligned, so the chunk's pairs
			// are exactly its pair indices [0, len/2).
			stride := 1 << op.q
			if matIsReal(&op.u) {
				apply1QRealPairs(r, p.imOf(i, m), stride, realMatrix(&op.u), 0, len(r)>>1)
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
			d := p.preps[i]
			applyPhaseTermsChunk(r, m, p.phases[d.phaseOff:d.phaseOff+d.phaseLen], base)
			applySignTermsChunk(r, p.imOf(i, m), p.signs[d.signOff:d.signOff+d.signLen], base)
		}
	}
}

// realMatrix returns the real parts of u, which matIsReal accepted.
func realMatrix(u *[4]complex128) [4]float64 {
	return [4]float64{real(u[0]), real(u[1]), real(u[2]), real(u[3])}
}

// runGlobal runs op i, which couples chunks: a 1q matrix on qubit q ≥ k
// is a butterfly over the chunk pairs (c, c|2^(q−k)); a CX with a local
// control and a global target swaps the control-set amplitudes between
// the same pairs; a CX with both qubits global exchanges whole chunks.
// Each pair belongs to one par.Do index, so parallel pairs never
// overlap.
func (x *chunks) runGlobal(i int) {
	op := &x.p.ops[i]
	if op.kind == opCX && op.q >= x.k && !x.moveData {
		cbit, tbit := 1<<(op.q-x.k), 1<<(op.q2-x.k)
		for c := range x.re {
			if c&cbit != 0 && c&tbit == 0 {
				o := c | tbit
				x.re[c], x.re[o] = x.re[o], x.re[c]
				x.im[c], x.im[o] = x.im[o], x.im[c]
			}
		}
		return
	}
	x.lo, x.hi = i, i+1
	do(len(x.re)/2, x.pairJob)
}

// pair runs op lo, which couples chunks, on its i-th chunk pair (c0, c1).
func (x *chunks) pair(i int) {
	op := &x.p.ops[x.lo]
	t := op.q // the qubit whose bit pairs the chunks: the 1q op's or the CX target
	if op.kind == opCX {
		t = op.q2
	}
	bit := 1 << (t - x.k)
	c0 := pairLow(i, bit)
	c1 := c0 | bit
	r0, r1 := x.re[c0], x.re[c1]
	m0, m1 := x.im[c0], x.im[c1]
	switch {
	case op.kind == op1Q:
		butterfly(r0, x.p.imOf(x.lo, m0), r1, x.p.imOf(x.lo, m1), &op.u)
	case op.q < x.k:
		swapWhereSet(r0, m0, r1, m1, 1<<op.q)
	case c0&(1<<(op.q-x.k)) != 0:
		swapWhereSet(r0, m0, r1, m1, 0)
	}
}

// pairLow returns the lower chunk of the i-th pair (c, c|bit): i with a
// zero inserted at bit's position.
func pairLow(i, bit int) int {
	low := bit - 1
	return (i&^low)<<1 | i&low
}

// butterflyReal applies the real matrix u to the pairs (a0[x], a1[x])
// of one array, with apply1QRealPairs' float expression.
func butterflyReal(a0, a1 []float64, u [4]float64) {
	u00, u01, u10, u11 := u[0], u[1], u[2], u[3]
	a1 = a1[:len(a0)]
	for x := range a0 {
		v0, v1 := a0[x], a1[x]
		a0[x] = float64(u00*v0) + float64(u01*v1)
		a1[x] = float64(u10*v0) + float64(u11*v1)
	}
}

// butterfly applies u to the pairs (element j of chunk 0, element j of
// chunk 1), of re and im, or of re alone when im0 and im1 are nil: a 1q
// matrix on the qubit whose stride is the distance between the chunks.
// The inner loops are apply1QRealPairs' and apply1QCmplxPairs' float
// expressions verbatim, with the same real-matrix dispatch, so the
// arithmetic is the same bits.
func butterfly(re0, im0, re1, im1 []float64, u *[4]complex128) {
	n := len(re0)
	r0 := re0[:n]
	r1 := re1[:n]
	if im0 == nil {
		butterflyReal(r0, r1, realMatrix(u))
		return
	}
	m0 := im0[:n]
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

// swapWhereSet swaps element j between two chunks for every j with bit
// mc set: a CX whose control is below the chunk length (mc = 2^control)
// and whose target bit lives in the chunk index. An mc of 0 swaps every
// element: a CX with both bits in the chunk index. Pure swaps, hence
// exact.
func swapWhereSet(re0, im0, re1, im1 []float64, mc int) {
	n := len(re0)
	step, run := mc<<1, mc
	if mc == 0 {
		step, run = n, n
	}
	r0 := re0[:n]
	m0 := im0[:n]
	r1 := re1[:n]
	m1 := im1[:n]
	for b := mc; b < n; b += step {
		for j := b; j < b+run; j++ {
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

// blockBits sizes applySignTermsChunk's blocks: 2^6 amplitudes, one
// bit each of a uint64 negation word.
const blockBits = 6

// sweepChunk bounds the terms one sweep folds; a longer batch takes one
// sweep per sweepChunk terms.
const sweepChunk = 32

// applySignTermsChunk applies pure ±1 terms to a chunk, of re and of im
// unless it is nil, whose first amplitude has basis index base, in one
// pass over blocks of 64 amplitudes. Negation flips the sign bit, also
// of ±0 and NaN, so the batch's effect on an amplitude is the parity of
// the terms that negate it: bit j of a block's word, the XOR of the
// terms' words, negates amplitude j. A term's word depends only on the
// block's index bits at or above blockBits. A term with no such bit
// inside the chunk has one word for the whole chunk, and those words
// fold into one constant; every other term picks one of four words by
// its bits of the block index. A chunk under 64 amplitudes is one
// partial block: a window at base's low bits into the aligned block
// that holds it.
func applySignTermsChunk(re, im []float64, terms []signTerm, base int) {
	for len(terms) > sweepChunk {
		applySignTermsChunk(re, im, terms[:sweepChunk], base)
		terms = terms[sweepChunk:]
	}
	if len(terms) == 0 {
		return
	}
	n := len(re)
	var vary [sweepChunk]struct {
		w            [4]uint64 // by the block's bits a|b<<1
		sA, sB, a, b uint      // a (b) is 1 when sA (sB) is at or above blockBits
	}
	nv := 0
	fixed := uint64(0)
	for i := range terms {
		t := &terms[i]
		a, b := uint(0), uint(0)
		if t.sA >= blockBits {
			a = 1
		}
		if t.sB >= blockBits {
			b = 1
		}
		if b == 1 && 1<<t.sB < n || a == 1 && 1<<t.sA < n {
			v := &vary[nv]
			for q := range v.w {
				v.w[q] = signWord(t, uint(q)&1, uint(q)>>1)
			}
			v.sA, v.sB, v.a, v.b = t.sA, t.sB, a, b
			nv++
			continue
		}
		fixed ^= signWord(t, uint(base)>>t.sA&1, uint(base)>>t.sB&1)
	}
	if n < 1<<blockBits {
		// No term varies: every bit at or above blockBits is constant.
		flipSigns(re, im, 0, fixed>>(base&(1<<blockBits-1))&(1<<n-1))
		return
	}
	for lo := 0; lo < n; lo += 1 << blockBits {
		w := fixed
		g := uint(base + lo)
		for i := 0; i < nv; i++ {
			v := &vary[i]
			w ^= v.w[g>>v.sA&v.a|g>>v.sB&v.b<<1]
		}
		flipSigns(re, im, lo, w)
	}
}

// inBlock[s] is the word whose bit j is bit s of j.
var inBlock = [blockBits]uint64{
	0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000,
}

// signWord returns t's negation word for a block whose bits sA and sB
// are va and vb: bit j is set when t negates the block's amplitude j. A
// bit below blockBits is amplitude j's own, and its value is ignored.
func signWord(t *signTerm, va, vb uint) uint64 {
	mA, mB := bitMask(t.sA, va), bitMask(t.sB, vb)
	var w uint64
	if t.lut&1 != 0 {
		w |= ^mA & ^mB
	}
	if t.lut&2 != 0 {
		w |= mA & ^mB
	}
	if t.lut&4 != 0 {
		w |= ^mA & mB
	}
	if t.lut&8 != 0 {
		w |= mA & mB
	}
	return w
}

// bitMask returns the word whose bit j is bit s of a block's amplitude
// j: j's own bit below blockBits, else v for every j.
func bitMask(s, v uint) uint64 {
	if s < blockBits {
		return inBlock[s]
	}
	return -uint64(v)
}

// flipSigns negates re[lo+j], and im[lo+j] unless im is nil, for every
// set bit j of w.
func flipSigns(re, im []float64, lo int, w uint64) {
	if im == nil {
		for ; w != 0; w &= w - 1 {
			i := lo + bits.TrailingZeros64(w)
			re[i] = -re[i]
		}
		return
	}
	for ; w != 0; w &= w - 1 {
		i := lo + bits.TrailingZeros64(w)
		re[i] = -re[i]
		im[i] = -im[i]
	}
}
