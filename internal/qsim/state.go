// Package qsim is a from-scratch statevector simulator of an ideal quantum
// processor. It substitutes for the Qiskit backend the paper uses to
// produce "simulator data ... for the quantum chip input and output"
// (§7.1): it executes bound circuits exactly and samples measurement
// outcomes.
//
// The state of n qubits is a dense vector of 2^n amplitudes. Qubit 0 is
// the least-significant bit of the basis-state index (the same
// convention OpenQASM uses for its classical registers). Two engines
// hold it: State in one contiguous allocation, and Sharded in separately
// allocated 2^16-amplitude shards, which runs generic circuits of up to
// 28 qubits (DESIGN.md §13). Both run circuits through one chunk
// executor (exec.go), so they compute the same bits.
//
// # Memory layout
//
// Amplitudes are stored structure-of-arrays: separate re/im []float64
// slices rather than one []complex128 (DESIGN.md §11). The gate kernels
// are plain float loops over the two arrays, which keeps them branch-free,
// lets matrices with exactly-zero imaginary parts take halved-flop real
// kernels, and reduces ±1 phase batches to integer parity sweeps. A
// circuit's leading ops that keep a real state real sweep re alone.
// Amplitudes() returns a complex128 copy for tests.
//
// # Parallel execution
//
// Gate kernels, reductions and sampling partition the amplitude arrays
// across the internal/par worker pool; statevectors below par's serial
// threshold (2^14 amplitudes) run inline with no synchronization.
// Reductions use fixed chunking, and sampling uses fixed-size shot
// blocks with derived RNG sub-streams, so all results are deterministic
// for a fixed seed regardless of GOMAXPROCS. Both engines sample through
// one sampler (sampler.go).
//
// Concurrency contract: a *State is not safe for concurrent use — the
// internal parallelism is invisible to callers. The source passed to
// Sample and the *rng.Stream passed to MeasureQubit must not be shared
// with other goroutines while the call runs: neither is safe for
// concurrent use, and the sampler deliberately derives independent
// sub-stream seeds from the caller's source (a handful of serial draws)
// rather than locking one shared source across workers.
package qsim

import (
	"fmt"
	"math"

	"qtenon/internal/circuit"
	"qtenon/internal/par"
	"qtenon/internal/rng"
)

// MaxQubits bounds exact simulation; 2^24 amplitudes (256 MiB) is the
// practical ceiling for tests on a development machine.
const MaxQubits = 24

// State is a normalized statevector over n qubits, stored as separate
// real and imaginary float64 arrays (structure-of-arrays).
type State struct {
	n      int
	re, im []float64
	// The rest is working memory that never escapes the State, and Clone
	// copies none of it. runs holds the programs of the last two Runs,
	// runs[cur] the last one's, and one is Apply's. smp is Sample's.
	// tiled is the executor's view of re and im as 2^tileBits-amplitude
	// tiles, and whole views each array as one chunk, the sampler's.
	runs  [2]program
	cur   int
	one   program
	smp   sampler
	tiled *chunks
	whole [2][]float64
	// ckRe and ckIm are the prefix checkpoint (see Run): when ckAt > 0,
	// the amplitudes after ops [0, ckAt) of runs[cur]. They are a
	// function of that program prefix, not of the live state. ran counts
	// the ops the last Run executed after its build or resume.
	ckRe, ckIm []float64
	ckAt       int
	ran        int
}

// NewState returns |0...0⟩ over n qubits.
func NewState(n int) *State {
	if n <= 0 || n > MaxQubits {
		panic(fmt.Sprintf("qsim: qubit count %d outside (0,%d]", n, MaxQubits))
	}
	s := &State{n: n, re: make([]float64, 1<<n), im: make([]float64, 1<<n)}
	s.re[0] = 1
	return s
}

// NQubits reports the register width.
func (s *State) NQubits() int { return s.n }

// Amplitudes returns a fresh complex128 copy of the amplitudes, for
// tests. Hot paths read ReIm, which copies nothing.
func (s *State) Amplitudes() []complex128 {
	out := make([]complex128, len(s.re))
	for i := range out {
		out[i] = complex(s.re[i], s.im[i])
	}
	return out
}

// ReIm exposes the structure-of-arrays amplitude storage: re[i] + i·im[i]
// is the amplitude of basis state i. Callers must not modify the slices;
// they alias the live state and are the zero-cost read path expectation
// computations use.
func (s *State) ReIm() (re, im []float64) { return s.re, s.im }

// Clone returns an independent copy of the amplitudes.
func (s *State) Clone() *State {
	c := &State{n: s.n, re: make([]float64, len(s.re)), im: make([]float64, len(s.im))}
	copy(c.re, s.re)
	copy(c.im, s.im)
	return c
}

// Norm returns the 2-norm of the state (1 for any valid state).
func (s *State) Norm() float64 {
	re, im := s.re, s.im
	sum := par.SumFloat64(len(re), func(lo, hi int) float64 {
		var t float64
		for i := lo; i < hi; i++ {
			t += float64(re[i]*re[i]) + float64(im[i]*im[i])
		}
		return t
	})
	return math.Sqrt(sum)
}

// Fidelity returns |⟨s|o⟩|².
func (s *State) Fidelity(o *State) float64 {
	if s.n != o.n {
		panic("qsim: fidelity between different register sizes")
	}
	ar, ai, br, bi := s.re, s.im, o.re, o.im
	dot := par.SumComplex(len(ar), func(lo, hi int) complex128 {
		var tr, ti float64
		for i := lo; i < hi; i++ {
			tr += float64(ar[i]*br[i]) + float64(ai[i]*bi[i])
			ti += float64(ar[i]*bi[i]) + float64((-ai[i])*br[i])
		}
		return complex(tr, ti)
	})
	return float64(real(dot)*real(dot)) + float64(imag(dot)*imag(dot))
}

// matIsReal gates the halved-flop real-matrix kernels: only matrices
// whose imaginary parts are bit-for-bit zero qualify (RY/H/X products and
// friends). The exact ==0 test is intentional — a tolerance would change
// numerics by routing nearly-real matrices through the real kernel.
func matIsReal(u *[4]complex128) bool {
	return imag(u[0]) == 0 && imag(u[1]) == 0 && imag(u[2]) == 0 && imag(u[3]) == 0
}

// apply1QRealPairs applies a real 2×2 matrix over the pair-index range
// [lo, hi) to re and im, or to re alone when im is nil. On re alone, a
// range of whole stride blocks that holds a multiple of 8 amplitudes
// goes to the vector kernel where the CPU has one (realPairsVec,
// DESIGN.md §11.5), which computes the Go loops' bits; everything else,
// and every range on a CPU without one, runs apply1QRealPairsGo.
func apply1QRealPairs(re, im []float64, stride int, u [4]float64, lo, hi int) {
	if im == nil && (lo|hi)&(stride-1) == 0 && (hi-lo)&3 == 0 && realPairsVec(re[2*lo:2*hi], stride, &u) {
		return
	}
	apply1QRealPairsGo(re, im, stride, u, lo, hi)
}

// apply1QRealPairsGo is apply1QRealPairs in Go loops. Within a range
// the pair index is decoded once per contiguous run (a run ends at a
// stride block or the range boundary, whichever is first), keeping the
// inner loop a branch-free float sweep. Strides 1, 2 and 4 on re alone
// step over whole stride blocks of 2, 4 and 8 amplitudes instead, when
// the range holds whole blocks. One loop updates both arrays: on a
// state past the caches it measured faster than a sweep of each.
func apply1QRealPairsGo(re, im []float64, stride int, u [4]float64, lo, hi int) {
	u00, u01, u10, u11 := u[0], u[1], u[2], u[3]
	if im == nil && stride <= 4 && (lo|hi)&(stride-1) == 0 {
		// Pairs (x+j, x+j+stride) of block x, in pair order, with no run
		// decode at all.
		r := re[2*lo : 2*hi]
		switch stride {
		case 1:
			for x := 0; x+1 < len(r); x += 2 {
				a0r, a1r := r[x], r[x+1]
				r[x] = float64(u00*a0r) + float64(u01*a1r)
				r[x+1] = float64(u10*a0r) + float64(u11*a1r)
			}
		case 2:
			for x := 0; x+4 <= len(r); x += 4 {
				b := (*[4]float64)(r[x:])
				b[0], b[2] = float64(u00*b[0])+float64(u01*b[2]), float64(u10*b[0])+float64(u11*b[2])
				b[1], b[3] = float64(u00*b[1])+float64(u01*b[3]), float64(u10*b[1])+float64(u11*b[3])
			}
		case 4:
			for x := 0; x+8 <= len(r); x += 8 {
				b := (*[8]float64)(r[x:])
				b[0], b[4] = float64(u00*b[0])+float64(u01*b[4]), float64(u10*b[0])+float64(u11*b[4])
				b[1], b[5] = float64(u00*b[1])+float64(u01*b[5]), float64(u10*b[1])+float64(u11*b[5])
				b[2], b[6] = float64(u00*b[2])+float64(u01*b[6]), float64(u10*b[2])+float64(u11*b[6])
				b[3], b[7] = float64(u00*b[3])+float64(u01*b[7]), float64(u10*b[3])+float64(u11*b[7])
			}
		}
		return
	}
	if stride == 1 {
		// Pairs are adjacent: one contiguous window, two amplitudes per
		// step, no run decode at all.
		r := re[2*lo : 2*hi]
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
		// Equal-length windows over the run let the compiler drop the
		// bounds checks from the inner loop.
		r0 := re[i:][:run]
		r1 := re[i+stride:][:run]
		if im == nil {
			butterflyReal(r0, r1, u)
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

// apply1QCmplxPairs is the general complex kernel over the pair-index
// range [lo, hi), written as explicit float arithmetic in exactly the
// association order complex128 multiplication uses.
func apply1QCmplxPairs(re, im []float64, stride int, u *[4]complex128, lo, hi int) {
	u00r, u00i := real(u[0]), imag(u[0])
	u01r, u01i := real(u[1]), imag(u[1])
	u10r, u10i := real(u[2]), imag(u[2])
	u11r, u11i := real(u[3]), imag(u[3])
	mask := stride - 1
	for k := lo; k < hi; {
		run := stride - k&mask
		if run > hi-k {
			run = hi - k
		}
		i := (k&^mask)<<1 | k&mask
		r0 := re[i:][:run]
		m0 := im[i:][:run]
		r1 := re[i+stride:][:run]
		m1 := im[i+stride:][:run]
		for x := 0; x < run; x++ {
			a0r, a0i := r0[x], m0[x]
			a1r, a1i := r1[x], m1[x]
			r0[x] = (float64(u00r*a0r) - float64(u00i*a0i)) + (float64(u01r*a1r) - float64(u01i*a1i))
			m0[x] = (float64(u00r*a0i) + float64(u00i*a0r)) + (float64(u01r*a1i) + float64(u01i*a1r))
			r1[x] = (float64(u10r*a0r) - float64(u10i*a0i)) + (float64(u11r*a1r) - float64(u11i*a1i))
			m1[x] = (float64(u10r*a0i) + float64(u10i*a0r)) + (float64(u11r*a1i) + float64(u11i*a1r))
		}
		k += run
	}
}

// applyCXRange swaps target pairs over the amplitude range [lo, hi). It
// is safe for any range whose indices own their partners (the j = i|mt
// partner of every i with control set, target clear lies in the same
// aligned range whenever mt < hi-lo and lo is mt-aligned, and in the
// full range always).
func applyCXRange(re, im []float64, mc, mt, lo, hi int) {
	for i := lo; i < hi; i++ {
		if i&mc != 0 && i&mt == 0 {
			j := i | mt
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
}

// gateMatrix1Q returns the 2×2 unitary of a single-qubit gate as
// {u00, u01, u10, u11}; ok is false for kinds that are not one-qubit
// unitaries.
func gateMatrix1Q(g circuit.Gate) (m [4]complex128, ok bool) {
	invSqrt2 := complex(1/math.Sqrt2, 0)
	switch g.Kind {
	case circuit.I:
		return [4]complex128{1, 0, 0, 1}, true
	case circuit.X:
		return [4]complex128{0, 1, 1, 0}, true
	case circuit.Y:
		return [4]complex128{0, complex(0, -1), complex(0, 1), 0}, true
	case circuit.Z:
		return [4]complex128{1, 0, 0, -1}, true
	case circuit.H:
		return [4]complex128{invSqrt2, invSqrt2, invSqrt2, -invSqrt2}, true
	case circuit.S:
		return [4]complex128{1, 0, 0, complex(0, 1)}, true
	case circuit.T:
		return [4]complex128{1, 0, 0, expI(math.Pi / 4)}, true
	case circuit.RX:
		sn, c := math.Sincos(g.Theta / 2)
		return [4]complex128{complex(c, 0), complex(0, -sn), complex(0, -sn), complex(c, 0)}, true
	case circuit.RY:
		sn, c := math.Sincos(g.Theta / 2)
		return [4]complex128{complex(c, 0), complex(-sn, 0), complex(sn, 0), complex(c, 0)}, true
	case circuit.RZ:
		e0, e1 := expIPair(g.Theta / 2)
		return [4]complex128{e0, 0, 0, e1}, true
	default:
		return m, false
	}
}

// Apply executes one gate as a one-gate program through the chunk
// executor, the path Run takes, except that it sweeps re and im for
// every gate: the live state may be complex, so no op of Apply's
// program is in a real prefix. Measure gates are ignored here; use
// Sample or MeasureQubit for readout. A qubit outside the register
// panics.
func (s *State) Apply(g circuit.Gate) {
	if g.Qubit < 0 || g.Qubit >= s.n || g.Kind.Arity() == 2 && (g.Qubit2 < 0 || g.Qubit2 >= s.n) {
		panic(fmt.Sprintf("qsim: %v outside the %d-qubit register", g, s.n))
	}
	s.one.compile([]circuit.Gate{g})
	s.one.real = 0
	s.one.run(s.tiles(), 0, len(s.one.ops))
}

// Run executes a fully bound circuit starting from |0…0⟩ on a freshly
// allocated State and returns the final (pre-measurement) state.
func Run(c *circuit.Circuit) (*State, error) {
	if c.NQubits <= 0 || c.NQubits > MaxQubits {
		return nil, fmt.Errorf("qsim: %d qubits outside the exact-simulation window (0,%d]", c.NQubits, MaxQubits)
	}
	s := NewState(c.NQubits)
	if err := s.Run(c); err != nil {
		return nil, err
	}
	return s, nil
}

// Run executes a fully bound circuit of the same width on s from
// |0…0⟩, reusing the amplitude arrays and sampler scratch instead of
// allocating a fresh 2^n statevector. Gates are run through the fusion
// pass (see fusion.go): runs of single-qubit gates collapse into one 2×2
// apply and batches of diagonal gates into one phase sweep. Run builds
// the state the program's product prefix leaves in one pass (exec.go)
// and runs the other ops through the chunk executor over the state's
// 2^12-amplitude tiles, or one tile below 12 qubits. The previous
// contents are destroyed.
//
// Run is also the simulator's own q_update. It keeps the previous Run's
// program and one checkpoint of the state part way through it. Let d
// be the number of leading ops the new program shares with the
// previous one, bit for bit, counted as 0 when it does not pass the
// product prefix. When the checkpoint lies within them (0 < ckAt ≤ d),
// Run copies it into the state and resumes at op ckAt; otherwise it
// builds. When it starts below d and ops remain after d, it saves the
// state before op d as the new checkpoint. Either way the amplitudes
// are the bits a fresh State computes, since the shared ops see the
// same input. A failed Run leaves no checkpoint.
func (s *State) Run(c *circuit.Circuit) error {
	ckAt := s.ckAt
	s.ckAt = 0
	if c.NumParams != 0 {
		return fmt.Errorf("qsim: circuit has %d unbound parameters", c.NumParams)
	}
	if c.NQubits != s.n {
		return fmt.Errorf("qsim: circuit has %d qubits, state %d", c.NQubits, s.n)
	}
	if err := c.Validate(); err != nil {
		return err
	}
	prev, p := &s.runs[s.cur], &s.runs[1-s.cur]
	p.compile(c.Gates)
	s.cur = 1 - s.cur
	d := p.shared(prev)
	if d <= p.pre {
		d = 0
	}
	x := s.tiles()
	start := p.pre
	if 0 < ckAt && ckAt <= d {
		copy(s.re, s.ckRe)
		copy(s.im, s.ckIm)
		start = ckAt
	} else {
		p.build(x)
		ckAt = 0
	}
	s.ran = len(p.ops) - start
	if start < d && d < len(p.ops) {
		p.run(x, start, d)
		if s.ckRe == nil {
			s.ckRe = make([]float64, len(s.re))
			s.ckIm = make([]float64, len(s.im))
		}
		copy(s.ckRe, s.re)
		copy(s.ckIm, s.im)
		start, ckAt = d, d
	}
	p.run(x, start, len(p.ops))
	s.ckAt = ckAt
	return nil
}

// tiles returns the executor's view of the state: its 2^k-amplitude
// tiles.
func (s *State) tiles() *chunks {
	if s.tiled == nil {
		k := min(s.n, tileBits)
		re := make([][]float64, len(s.re)>>k)
		im := make([][]float64, len(s.re)>>k)
		for t := range re {
			re[t] = s.re[t<<k : (t+1)<<k]
			im[t] = s.im[t<<k : (t+1)<<k]
		}
		s.tiled = newChunks(re, im, k, true)
	}
	return s.tiled
}

// Sample draws `shots` full-register measurement outcomes (basis-state
// indices, qubit 0 in bit 0) without collapsing the state, through the
// sampler with the whole array as one chunk. The returned slice is
// freshly allocated and owned by the caller.
//
// src must not be shared with other goroutines while Sample runs; it is
// consumed only on the calling goroutine (one seed draw per shot block),
// and each block samples from an independent derived sub-stream.
func (s *State) Sample(shots int, src rng.Source) []uint64 {
	s.whole = [2][]float64{s.re, s.im}
	return s.smp.sample(s.whole[:1], s.whole[1:], s.n, shots, src)
}

// Probabilities returns the measurement distribution over all basis
// states.
func (s *State) Probabilities() []float64 {
	re, im := s.re, s.im
	p := make([]float64, len(re))
	par.For(len(re), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p[i] = float64(re[i]*re[i]) + float64(im[i]*im[i])
		}
	})
	return p
}

// MeasureQubit projects qubit q, returning the outcome bit and collapsing
// the state. It is used by tests of mid-circuit behaviour. The stream
// must not be shared with other goroutines while the call runs.
func (s *State) MeasureQubit(q int, src *rng.Stream) int {
	re, im := s.re, s.im
	m := 1 << q
	p1 := par.SumFloat64(len(re), func(lo, hi int) float64 {
		var t float64
		for i := lo; i < hi; i++ {
			if i&m != 0 {
				t += float64(re[i]*re[i]) + float64(im[i]*im[i])
			}
		}
		return t
	})
	outcome := 0
	if src.Float64() < p1 {
		outcome = 1
	}
	var norm float64
	if outcome == 1 {
		norm = math.Sqrt(p1)
	} else {
		norm = math.Sqrt(1 - p1)
	}
	par.For(len(re), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if (i&m != 0) != (outcome == 1) {
				re[i] = 0
				im[i] = 0
			} else if norm > 0 {
				re[i] /= norm
				im[i] /= norm
			}
		}
	})
	return outcome
}

// ExpectationZ returns ⟨Z_q⟩ for a single qubit.
func (s *State) ExpectationZ(q int) float64 {
	re, im := s.re, s.im
	m := 1 << q
	return par.SumFloat64(len(re), func(lo, hi int) float64 {
		var e float64
		for i := lo; i < hi; i++ {
			p := float64(re[i]*re[i]) + float64(im[i]*im[i])
			if i&m == 0 {
				e += p
			} else {
				e -= p
			}
		}
		return e
	})
}

// ExpectationZZ returns ⟨Z_a Z_b⟩.
func (s *State) ExpectationZZ(a, b int) float64 {
	re, im := s.re, s.im
	ma, mb := 1<<a, 1<<b
	return par.SumFloat64(len(re), func(lo, hi int) float64 {
		var e float64
		for i := lo; i < hi; i++ {
			p := float64(re[i]*re[i]) + float64(im[i]*im[i])
			if (i&ma != 0) == (i&mb != 0) {
				e += p
			} else {
				e -= p
			}
		}
		return e
	})
}
