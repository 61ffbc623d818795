package qsim

// Shard-execution support. The sharded statevector engine
// (internal/qsim/shard) stores amplitudes as independently allocated
// 2^k-amplitude chunks but must produce results bit-for-bit identical to
// the contiguous engine (DESIGN.md §13). The only way to guarantee that
// is to run the *same* fused program through the *same* kernels in the
// same per-amplitude order — so this file exports a compiled-program
// facade plus chunk-level kernel entry points, keeping every kernel and
// term type private to qsim while letting the shard package orchestrate
// where each sweep runs.
//
// Alignment invariant: a chunk's global base index is a multiple of the
// chunk length (itself a power of two ≥ 2·tileAmps in production), so
// for any qubit q with 2^q below the chunk length, the low bits of a
// global amplitude index equal the in-chunk index bits. That is what
// lets the contiguous pair/diagonal kernels run unmodified on a chunk:
// the pair decode, run boundaries and factor selection all agree with
// the dense sweep positioned at the chunk's base.

import (
	"math/rand"

	"qtenon/internal/circuit"
)

// SampleBlock is the per-worker shot granularity of the samplers,
// exported so the sharded sampler uses the identical block/seed
// discipline (one serial seed draw per block ⇒ GOMAXPROCS-independent
// outcome streams).
const SampleBlock = sampleBlock

// FusedProgram is a compiled fused-gate program plus the classified
// diagonal terms the tiled executor would use — the exact op stream
// State.applyFused runs, exposed for out-of-package executors. The
// zero value is ready; Compile recycles all internal storage, so a
// long-lived program is allocation-free in steady state.
type FusedProgram struct {
	fs    fuser
	ops   []fusedOp
	x     execScratch
	preps []diagPrep
}

// Compile fuses a bound gate list and classifies every diagonal batch.
// The program is valid until the next Compile.
func (p *FusedProgram) Compile(gates []circuit.Gate) {
	p.ops = fuse(gates, &p.fs)
	p.preps = p.x.prepare(p.ops)
}

// NumOps reports the compiled operation count.
func (p *FusedProgram) NumOps() int { return len(p.ops) }

// OpInfo reports the i-th op's kind and qubit operands: (q, -1) for a
// single-qubit matrix, (control, target) for a CX, and (-1, -1) for a
// diagonal batch (its per-term qubits stay private; ApplyDiagChunk
// handles them).
func (p *FusedProgram) OpInfo(i int) (kind OpKind, q, q2 int) {
	op := &p.ops[i]
	switch op.kind {
	case Op1Q:
		return Op1Q, op.q, -1
	case OpCX:
		return OpCX, op.q, op.q2
	default:
		return OpDiag, -1, -1
	}
}

// Apply1QChunk applies op i (which must be Op1Q with 2^(q+1) ≤ chunk
// length) to one amplitude chunk, dispatching the same real/complex
// kernel choice as the contiguous engine over the chunk's pairs.
func (p *FusedProgram) Apply1QChunk(i int, re, im []float64) {
	op := &p.ops[i]
	stride := 1 << op.q
	if matIsReal(&op.u) {
		r := [4]float64{real(op.u[0]), real(op.u[1]), real(op.u[2]), real(op.u[3])}
		apply1QRealPairs(re, im, stride, r, 0, len(re)>>1)
		return
	}
	apply1QCmplxPairs(re, im, stride, &op.u, 0, len(re)>>1)
}

// Apply1QPairChunks applies op i (Op1Q on a qubit whose stride is the
// distance between the two chunks) as a cross-chunk butterfly: element j
// of chunk 0 pairs with element j of chunk 1. The float expressions are
// the contiguous kernels' inner loops verbatim, so the arithmetic —
// including the real-matrix specialization — is bit-identical.
func (p *FusedProgram) Apply1QPairChunks(i int, re0, im0, re1, im1 []float64) {
	op := &p.ops[i]
	n := len(re0)
	r0 := re0[:n]
	m0 := im0[:n]
	r1 := re1[:n]
	m1 := im1[:n]
	if matIsReal(&op.u) {
		u00, u01 := real(op.u[0]), real(op.u[1])
		u10, u11 := real(op.u[2]), real(op.u[3])
		for x := 0; x < n; x++ {
			a0r, a0i := r0[x], m0[x]
			a1r, a1i := r1[x], m1[x]
			r0[x] = u00*a0r + u01*a1r
			m0[x] = u00*a0i + u01*a1i
			r1[x] = u10*a0r + u11*a1r
			m1[x] = u10*a0i + u11*a1i
		}
		return
	}
	u00r, u00i := real(op.u[0]), imag(op.u[0])
	u01r, u01i := real(op.u[1]), imag(op.u[1])
	u10r, u10i := real(op.u[2]), imag(op.u[2])
	u11r, u11i := real(op.u[3]), imag(op.u[3])
	for x := 0; x < n; x++ {
		a0r, a0i := r0[x], m0[x]
		a1r, a1i := r1[x], m1[x]
		r0[x] = (u00r*a0r - u00i*a0i) + (u01r*a1r - u01i*a1i)
		m0[x] = (u00r*a0i + u00i*a0r) + (u01r*a1i + u01i*a1r)
		r1[x] = (u10r*a0r - u10i*a0i) + (u11r*a1r - u11i*a1i)
		m1[x] = (u10r*a0i + u10i*a0r) + (u11r*a1i + u11i*a1r)
	}
}

// ApplyDiagChunk applies op i (OpDiag) to one amplitude chunk whose
// global base index is base (a multiple of the chunk length). Diagonal
// sweeps never couple amplitudes, so a chunk is always a complete,
// independent slice of the sweep; factors keyed on bits at or above the
// chunk length are constant across the chunk and resolved from base.
// Phase terms run before sign terms, exactly as in the tiled executor.
func (p *FusedProgram) ApplyDiagChunk(i int, re, im []float64, base int) {
	pr := p.preps[i]
	applyPhaseTermsChunk(re, im, p.x.phases[pr.phaseOff:pr.phaseOff+pr.phaseLen], base)
	applySignTermsChunk(re, im, p.x.signs[pr.signOff:pr.signOff+pr.signLen], base)
}

// applyPhaseTermsChunk is applyPhaseTermsRange over a chunk at a global
// base offset: the per-run factor selection reads the *global* index
// bits, while the multiplies run on chunk-local storage. Runs whose
// stride meets or exceeds the chunk length collapse to one constant
// factor for the whole chunk.
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
				re[j] = r*cr - m*ci
				im[j] = r*ci + m*cr
			}
		}
	}
}

// applySignTermsChunk is applySignTermsRange over a chunk at a global
// base offset. Bits at or above the chunk length are constant across the
// chunk and folded out of the lut (selecting a half, or a single
// negate/skip decision); fully chunk-local terms reuse the contiguous
// sweep unchanged (chunk bounds satisfy its alignment contract).
func applySignTermsChunk(re, im []float64, terms []signTerm, base int) {
	n := len(re)
	for ti := range terms {
		t := &terms[ti]
		if t.lut == 0 {
			continue
		}
		sA, sB := t.sA, t.sB
		if 1<<sA >= n {
			// Both bits constant (sA ≤ sB): the whole chunk shares one
			// factor pattern.
			p := ((base >> sA) & 1) | (((base >> sB) & 1) << 1)
			if t.lut>>p&1 != 0 {
				for j := 0; j < n; j++ {
					re[j] = -re[j]
					im[j] = -im[j]
				}
			}
			continue
		}
		if 1<<sB >= n {
			// Bit sB constant; select its lut half and sweep bit sA.
			l := (t.lut >> (2 * uint((base>>sB)&1))) & 3
			negateBit(re, im, sA, l&1 != 0, l>>1&1 != 0, 0, n)
			continue
		}
		applySignTermsRange(re, im, terms[ti:ti+1], 0, n)
	}
}

// ApplyCXChunk applies a CX whose control and target are both below the
// chunk length to one chunk — the contiguous swap kernel over the full
// chunk range.
func ApplyCXChunk(re, im []float64, control, target int) {
	applyCXRange(re, im, 1<<control, 1<<target, 0, len(re))
}

// ApplyXChunk applies an unconditional X on a target below the chunk
// length — the shard-selected half of a CX whose control bit lives in
// the shard index. Pure swaps, hence exact.
func ApplyXChunk(re, im []float64, target int) {
	mt := 1 << target
	for i := 0; i < len(re); i++ {
		if i&mt == 0 {
			j := i | mt
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
}

// SwapWhereSetChunk swaps element j between two chunks for every j with
// the control bit set — a CX whose control is below the chunk length and
// whose target bit lives in the shard index. Pure swaps, hence exact.
func SwapWhereSetChunk(re0, im0, re1, im1 []float64, control int) {
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

// Alias wraps the private Walker/Vose alias table for out-of-package
// samplers (the sharded engine's two-level sampler). The zero value is
// invalid; NewAlias builds one.
type Alias struct {
	t *aliasTable
}

// NewAlias builds an alias table over an (approximately normalized)
// distribution through scratch. When spare holds a retired table of
// sufficient capacity its storage is recycled, and a warmed scratch
// grows no further, so steady-state rebuilds allocate nothing.
// Concurrent builds need a scratch each.
func NewAlias(p []float64, spare Alias, scratch *AliasScratch) Alias {
	return Alias{t: newAliasTable(p, scratch, spare.t)}
}

// Draw returns one index from the table's distribution: O(1), two RNG
// draws — identical to the contiguous sampler's per-shot cost.
func (a Alias) Draw(rng *rand.Rand) int { return a.t.draw(rng) }
