// Package rng owns the Qtenon reproduction's pseudo-random streams.
//
// Every stochastic component (the chip's measurement sampler, the noise
// model's trajectory draws, the TileLink bus arbiter, SPSA's Rademacher
// perturbations, the alias sampler's per-block sub-streams) draws from
// an explicitly seeded *Stream made here, with NewStream or by Seed on
// a recycled one, so a run is a pure function of its configured seeds.
// Outside tests, no other package imports math/rand. The golden
// RunResults pin every stream (DESIGN.md §9): a stream drawn from the
// global source, or seeded from the host, fails them.
//
// A Stream is a copy of math/rand's seeded generator, bit for bit: for
// every seed, NewStream(seed) draws exactly what
// rand.New(rand.NewSource(seed)) draws, call for call (DESIGN.md §14.5).
// Owning it lets the hot paths call it as a concrete type, fill blocks
// of draws at once (Read63), compare a block against thresholds as it
// is drawn (Below) and reseed a stream in place, none of which
// math/rand's interface-typed Rand allows.
//
// Source is the one-method view a sampler reads, Int63; *Stream and
// *rand.Rand both satisfy it. New still returns math/rand's stream of
// a seed, for two users: the tests, which hold Stream to it as their
// oracle, and perfbench's layer replay, which holds one.
package rng

import "math/rand"

// The generator is math/rand's additive lagged Fibonacci generator:
// output n is output n−length plus output n−lag, mod 2⁶⁴.
const (
	length = 607
	lag    = 273
	mask   = 1<<63 - 1
)

// The seeding LCG is x → 48271·x mod 2³¹−1 (Park–Miller).
const (
	lcgMod  = 1<<31 - 1
	lcgMul  = 48271
	lcgZero = 89482311 // what a seed ≡ 0 mod lcgMod seeds as
)

// Stream is a seeded random stream. Its zero value is not seeded; make
// one with NewStream or Seed. A Stream is not safe for concurrent use.
//
// vec holds math/rand's 607 words in reverse order, so that the two
// lagged indices advance upward: each draw adds vec[tap] into
// vec[feed], where feed runs lag words ahead of tap, and returns the
// sum with its top bit cleared.
type Stream struct {
	vec       [length]int64
	tap, feed int
}

// cooked is math/rand's seeding table, in Stream's word order: Seed
// XORs it into the LCG's words. It is derived at init from a live
// math/rand source rather than copied.
var cooked [length]int64

func init() {
	// A source's first length outputs overwrite every word once; undo
	// those steps in reverse to recover the state seeding left, then
	// XOR out the LCG words (Seed with the table still zero).
	src := rand.NewSource(1).(rand.Source64)
	var v [length]int64
	for n := range length {
		v[(lag+n)%length] = int64(src.Uint64())
	}
	for n := length - 1; n >= 0; n-- {
		v[(lag+n)%length] -= v[n]
	}
	var words Stream
	words.Seed(1)
	for i := range v {
		cooked[i] = v[i] ^ words.vec[i]
	}
}

// NewStream returns a stream seeded with seed.
func NewStream(seed int64) *Stream {
	s := new(Stream)
	s.Seed(seed)
	return s
}

// Seed resets s, in place, to the stream seeded with seed. It
// allocates nothing.
func (s *Stream) Seed(seed int64) {
	s.tap, s.feed = 0, lag
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = lcgZero
	}
	x := uint64(seed)
	for range 20 {
		x = lcg(x)
	}
	for i := length - 1; i >= 0; i-- {
		x = lcg(x)
		u := x << 40
		x = lcg(x)
		u ^= x << 20
		x = lcg(x)
		u ^= x
		s.vec[i] = int64(u) ^ cooked[i]
	}
}

// lcg returns 48271·x mod 2³¹−1 for x in [1, 2³¹−1). Since
// 2³¹ ≡ 1 mod 2³¹−1, the product's bits above bit 30 fold onto its low
// 31; the sum is below 2³² and needs at most one subtraction.
func lcg(x uint64) uint64 {
	p := x * lcgMul
	r := p&lcgMod + p>>31
	if r >= lcgMod {
		r -= lcgMod
	}
	return r
}

// Int63 returns the next non-negative 63-bit draw.
func (s *Stream) Int63() int64 {
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	if s.feed++; s.feed == length {
		s.feed = 0
	}
	if s.tap++; s.tap == length {
		s.tap = 0
	}
	return x & mask
}

// read63 fills dst with the next len(dst) draws. Between index wraps,
// the feed and tap words are two contiguous runs, added in one loop;
// where the runs overlap, the loop reads each word after this call
// wrote it, as the scalar steps do.
func (s *Stream) read63(dst []int64) {
	for len(dst) > 0 {
		m := min(len(dst), length-s.feed, length-s.tap)
		f := s.vec[s.feed : s.feed+m]
		t := s.vec[s.tap:][:len(f)]
		d := dst[:len(f)]
		for i := range f {
			x := f[i] + t[i]
			f[i] = x
			d[i] = x & mask
		}
		dst = dst[m:]
		if s.feed += m; s.feed == length {
			s.feed = 0
		}
		if s.tap += m; s.tap == length {
			s.tap = 0
		}
	}
}

// below is Below on a Stream: it adds the two lagged runs as read63
// does and folds each sum into the word and the redraw check in the
// same loop, writing no buffer. A feed word is next rewritten length
// draws after it is written and next read as a tap lag draws after, so
// a block of at most 64 draws leaves its own draws in its feed words:
// the slow path re-reads them from there into xs.
func (s *Stream) below(ks []int64, xs []int64) (v uint64, ok bool) {
	var over int64 // takes the sign bit of x+512, set when x ≥ Redraw
	for k := ks; len(k) > 0; {
		m := min(len(k), length-s.feed, length-s.tap)
		f := s.vec[s.feed : s.feed+m]
		t := s.vec[s.tap:][:len(f)]
		kf := k[:len(f)]
		for i := range f {
			x := f[i] + t[i]
			f[i] = x
			x &= mask
			v = v>>1 | uint64(x-kf[i])>>63<<63
			over |= x + (1<<63 - Redraw)
		}
		k = k[m:]
		if s.feed += m; s.feed == length {
			s.feed = 0
		}
		if s.tap += m; s.tap == length {
			s.tap = 0
		}
	}
	if over < 0 {
		f := s.feed - len(xs)
		if f < 0 {
			f += length
		}
		for i := range xs {
			xs[i] = s.vec[f] & mask
			if f++; f == length {
				f = 0
			}
		}
	}
	return v, over >= 0
}

// Redraw is the least Int63 that Float64 rounds to 1 and so draws
// again: float64(x)/2⁶³ == 1 exactly when x ≥ 2⁶³−512, since float64
// spacing below 2⁶³ is 1024 and a tie rounds to even.
const Redraw = 1<<63 - 512

// Float64 returns a draw in [0, 1): the next Int63 over 2⁶³, drawn
// again when that rounds to 1.
func (s *Stream) Float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Intn returns a draw in [0, n). It panics if n ≤ 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(s.int31n(int32(n)))
	}
	return int(s.int63n(int64(n)))
}

// int31n returns a draw in [0, n) for n > 0: the top 31 bits of an
// Int63, masked when n is a power of two, else drawn until they fall
// below the largest multiple of n and reduced mod n.
func (s *Stream) int31n(n int32) int32 {
	if n&(n-1) == 0 {
		return int32(s.Int63()>>32) & (n - 1)
	}
	limit := int32(1<<31 - 1 - (1<<31)%uint32(n))
	v := int32(s.Int63() >> 32)
	for v > limit {
		v = int32(s.Int63() >> 32)
	}
	return v % n
}

// int63n is int31n over all 63 bits.
func (s *Stream) int63n(n int64) int64 {
	if n&(n-1) == 0 {
		return s.Int63() & (n - 1)
	}
	limit := int64(1<<63 - 1 - (1<<63)%uint64(n))
	v := s.Int63()
	for v > limit {
		v = s.Int63()
	}
	return v % n
}

// uint32n returns a draw in [0, n) for n > 0 by Lemire's
// multiply-and-shift on a 32-bit draw (bits 31–62 of an Int63),
// rejecting the low products that would bias it.
func (s *Stream) uint32n(n int32) int32 {
	prod := uint64(uint32(s.Int63()>>31)) * uint64(n)
	if low := uint32(prod); low < uint32(n) {
		thresh := uint32(-n) % uint32(n)
		for low < thresh {
			prod = uint64(uint32(s.Int63()>>31)) * uint64(n)
			low = uint32(prod)
		}
	}
	return int32(prod >> 32)
}

// Shuffle permutes n elements by Fisher–Yates, calling swap(i, j) for
// i from n−1 down to 1. It panics if n < 0.
func (s *Stream) Shuffle(n int, swap func(i, j int)) {
	if n < 0 {
		panic("rng: invalid argument to Shuffle")
	}
	i := n - 1
	for ; i > 1<<31-1-1; i-- {
		swap(i, int(s.int63n(int64(i+1))))
	}
	for ; i > 0; i-- {
		swap(i, int(s.uint32n(int32(i+1))))
	}
}

// Source is a stream of non-negative 63-bit draws: the one method a
// sampler that only reads Int63 needs. *Stream and *rand.Rand both
// satisfy it.
type Source interface {
	Int63() int64
}

// Read63 fills dst with src's next len(dst) draws, in order: from a
// *Stream in contiguous runs, from any other Source one Int63 at a
// time. It and Below are the only places that pick a path by the
// source's type.
func Read63(src Source, dst []int64) {
	if s, ok := src.(*Stream); ok {
		s.read63(dst)
		return
	}
	for i := range dst {
		dst[i] = src.Int63()
	}
}

// Below reads src's next len(ks) draws, for len(ks) ≤ 64 and each
// ks[q] in [0, Redraw], and returns the word whose bit q is set when
// draw q is below ks[q]. ok is false when some draw is at or above
// Redraw, one that Float64 would discard; xs[:len(ks)] then holds the
// block's draws, in order, for the caller to redo. From a *Stream the
// compare and the check run inside the lagged-Fibonacci loop, and xs
// is written only when ok is false; any other Source is read one Int63
// at a time into xs. Each bit enters at the top of the word, which is
// shifted into place once at the end.
func Below(src Source, ks []int64, xs *[64]int64) (word uint64, ok bool) {
	d := xs[:len(ks)]
	if s, isStream := src.(*Stream); isStream {
		word, ok = s.below(ks, d)
	} else {
		var over int64
		for i, k := range ks {
			x := src.Int63()
			d[i] = x
			word = word>>1 | uint64(x-k)>>63<<63
			over |= x + (1<<63 - Redraw)
		}
		ok = over >= 0
	}
	return word >> (64 - len(ks)), ok
}

// New returns rand.New(rand.NewSource(seed)), the math/rand stream
// that NewStream(seed) reproduces. It has two users left: tests, which
// hold the module's streams to it as their oracle, and perfbench's
// layer replay, whose field holds a *rand.Rand; it becomes a *Stream
// once that replay is replaced by in-program timers (DESIGN.md §14.5).
func New(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Derive folds a salt into a parent seed, giving an independent child
// stream with a stable, documented derivation. Components that need
// several streams from one configured seed (e.g. a noise model alongside
// its chip) derive rather than reusing the parent seed directly, so the
// streams never collide.
func Derive(seed, salt int64) int64 { return seed ^ salt }
