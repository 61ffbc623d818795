package rng

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// seeds covers the seeding LCG's special inputs: 0 and every multiple of
// 2³¹−1 (which seed as 89482311), the values around them, negative
// seeds (lifted by 2³¹−1), 89482311 itself, ±2⁶² and the int64
// extremes; random seeds follow.
func seeds() []int64 {
	s := []int64{0, 1, -1, 2, -2, 42, -42, 12345, -987654321,
		lcgMod, -lcgMod, 2 * lcgMod, -2 * lcgMod, 1000 * lcgMod, lcgMod - 1, lcgMod + 1, -lcgMod + 1, -lcgMod - 1,
		lcgZero, -lcgZero, 1 << 31, -1 << 31, 1 << 62, -1 << 62, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1,
		math.MaxInt64 / lcgMod * lcgMod, math.MinInt64 / lcgMod * lcgMod}
	r := rand.New(rand.NewSource(7))
	for range 40 {
		s = append(s, r.Int63()-r.Int63())
	}
	return s
}

// intns covers n = 1, every power of two, the values around 2³¹−1 and
// 2³¹ where Intn switches from Int31n to Int63n, values near 2⁶² and
// MaxInt, and small values whose rejection is frequent. The cases are
// int64 data: those above math.MaxInt, which a 32-bit int cannot hold,
// are skipped there.
func intns() []int {
	cases := []int64{1, 3, 5, 6, 7, 10, 100, 1000, 1<<31 - 2, 1<<31 - 1, 1 << 31, 1<<31 + 1,
		1<<62 - 1, 1<<62 + 1, 1<<62 + 1<<61, 3 << 61, math.MaxInt64, math.MaxInt64 - 1,
		1<<30 + 1, 1<<31/3 + 1, 3 << 29}
	for k := range 63 {
		cases = append(cases, 1<<k)
	}
	var n []int
	for _, c := range cases {
		if c <= math.MaxInt {
			n = append(n, int(c))
		}
	}
	return n
}

// pair is a Stream and the math/rand stream of the same seed.
type pair struct {
	t    *testing.T
	s    *Stream
	r    *rand.Rand
	what string
}

func newPair(t *testing.T, seed int64) *pair {
	return &pair{t: t, s: NewStream(seed), r: New(seed)}
}

// same fails unless got equals want and the two streams stand at the
// same position afterwards (their next draws agree).
func (p *pair) same(op string, got, want any) {
	p.t.Helper()
	if got != want {
		p.t.Fatalf("%s: %s = %v, math/rand gives %v", p.what, op, got, want)
	}
	if g, w := p.s.Int63(), p.r.Int63(); g != w {
		p.t.Fatalf("%s: after %s the next draw is %d, math/rand's %d", p.what, op, g, w)
	}
}

// TestStreamMatchesMathRand holds every Stream method to math/rand's,
// result and stream position, over the seeds above.
func TestStreamMatchesMathRand(t *testing.T) {
	for _, seed := range seeds() {
		p := newPair(t, seed)
		p.what = fmt.Sprint("seed ", seed)
		for i := range 3000 {
			if g, w := p.s.Int63(), p.r.Int63(); g != w {
				t.Fatalf("%s: draw %d = %d, math/rand gives %d", p.what, i, g, w)
			}
		}
		for range 20 {
			p.same("Float64", p.s.Float64(), p.r.Float64())
		}
		for _, n := range intns() {
			for range 5 {
				p.same(fmt.Sprintf("Intn(%d)", n), p.s.Intn(n), p.r.Intn(n))
			}
		}
		for _, n := range []int{0, 1, 2, 3, 17, 64, 607, 1000} {
			p.sameShuffle(n)
		}
		for _, n := range []int{0, 1, 5, 64, 272, 273, 274, 333, 334, 335, 606, 607, 608, 1214, 1500} {
			p.sameRead(n)
		}
	}
}

// sameIntn draws Intn(n) on both streams, for n that an int holds: a
// 32-bit int skips the rest.
func (p *pair) sameIntn(n int64) {
	p.t.Helper()
	if n <= math.MaxInt {
		p.same("Intn", p.s.Intn(int(n)), p.r.Intn(int(n)))
	}
}

// sameShuffle shuffles 0..n−1 on both streams.
func (p *pair) sameShuffle(n int) {
	p.t.Helper()
	a, b := make([]int, n), make([]int, n)
	for i := range a {
		a[i], b[i] = i, i
	}
	p.s.Shuffle(n, func(i, j int) { a[i], a[j] = a[j], a[i] })
	p.r.Shuffle(n, func(i, j int) { b[i], b[j] = b[j], b[i] })
	p.same(fmt.Sprintf("Shuffle(%d)", n), slices.Equal(a, b), true)
}

// sameRead reads n draws as one block from the Stream, and n Int63s
// from math/rand.
func (p *pair) sameRead(n int) {
	p.t.Helper()
	got := make([]int64, n)
	Read63(p.s, got)
	for i := range got {
		if w := p.r.Int63(); got[i] != w {
			p.t.Fatalf("%s: Read63 of %d: draw %d = %d, math/rand gives %d", p.what, n, i, got[i], w)
		}
	}
	p.same("Read63", n, n)
}

// TestShuffleLengths shuffles every length from 0 to 1000.
func TestShuffleLengths(t *testing.T) {
	p := newPair(t, 99)
	p.what = "seed 99"
	for n := 0; n <= 1000; n++ {
		p.sameShuffle(n)
	}
}

// TestRead63CrossesWraps reads blocks of every length up to two
// generator lengths, from every offset modulo the lag, so that blocks
// start and end on both sides of the feed and tap index wraps; and it
// reads the same through a Source that is not a *Stream.
func TestRead63CrossesWraps(t *testing.T) {
	p := newPair(t, -5)
	p.what = "seed -5"
	for n := 0; n <= 2*length; n += 7 {
		for range n % lag {
			p.same("Int63", p.s.Int63(), p.r.Int63())
		}
		p.sameRead(n)
	}
	want := New(3)
	got := make([]int64, 1000)
	Read63(New(3), got)
	for i, g := range got {
		if w := want.Int63(); g != w {
			t.Fatalf("Read63 over *rand.Rand: draw %d = %d, want %d", i, g, w)
		}
	}
}

// TestSeedInPlace reseeds a used stream and requires the fresh stream
// of that seed, without an allocation.
func TestSeedInPlace(t *testing.T) {
	s := NewStream(1)
	buf := make([]int64, 1000)
	for _, seed := range seeds() {
		Read63(s, buf[:int(uint64(seed)%1000)])
		s.Seed(seed)
		want := New(seed)
		for i := range 700 {
			if g, w := s.Int63(), want.Int63(); g != w {
				t.Fatalf("reseeded with %d: draw %d = %d, want %d", seed, i, g, w)
			}
		}
	}
	if a := testing.AllocsPerRun(10, func() { s.Seed(8) }); a != 0 {
		t.Fatalf("Seed allocates %.0f times", a)
	}
}

// TestLCGMatchesSchrage holds the shift-and-add reduction to math/rand's
// Schrage division at the ends of its domain and at random points.
func TestLCGMatchesSchrage(t *testing.T) {
	const a, q, r = 48271, 44488, 3399 // 2³¹−1 = a·q + r
	schrage := func(x int32) int32 {
		hi, lo := x/q, x%q
		x = a*lo - r*hi
		if x < 0 {
			x += lcgMod
		}
		return x
	}
	xs := []int32{1, 2, q - 1, q, q + 1, lcgMod - 2, lcgMod - 1, lcgZero}
	src := rand.New(rand.NewSource(1))
	for range 100000 {
		xs = append(xs, src.Int31n(lcgMod-1)+1)
	}
	for _, x := range xs {
		if g, w := lcg(uint64(x)), schrage(x); g != uint64(w) {
			t.Fatalf("lcg(%d) = %d, Schrage gives %d", x, g, w)
		}
	}
}

// script is a rand.Source that returns its values in turn.
type script struct {
	vals []int64
	next int
}

func (s *script) Int63() int64 {
	v := s.vals[s.next]
	s.next++
	return v
}

func (s *script) Seed(int64) {}

// Plant sets s's draw i places ahead to x, for 0 ≤ x ≤ 2⁶³−1 and
// i < lag: that draw adds tap word tap+i, which no draw before it
// writes, into feed word feed+i, which no draw before it reads. It
// reaches draws a seeded stream never makes, such as those at or above
// Redraw; the external tests use it too.
func Plant(s *Stream, i int, x int64) {
	s.vec[(s.feed+i)%length] = x - s.vec[(s.tap+i)%length]
}

// primed returns a Stream whose next len(vals) draws are vals, for at
// most lag values.
func primed(vals []int64) *Stream {
	s := NewStream(1)
	for i, v := range vals {
		Plant(s, i, v)
	}
	return s
}

// drawer is what Stream and rand.Rand share beyond Int63.
type drawer interface {
	Intn(int) int
	Shuffle(int, func(i, j int))
}

// TestRejectionEdges feeds Intn and Shuffle draws at and around each
// rejection limit, which seeded streams reach with probability about
// 2⁻³¹ or less: the 31-bit limit of Int31n, the 63-bit limit of
// Int63n, and the low product words of Lemire's method at and around
// its threshold. Each case must give math/rand's result, reading the
// same number of draws.
func TestRejectionEdges(t *testing.T) {
	filler := New(11)
	check := func(name string, lead []int64, call func(drawer) []int) {
		t.Helper()
		vals := append([]int64(nil), lead...)
		for len(vals) < lag {
			vals = append(vals, filler.Int63())
		}
		want := &script{vals: vals}
		s := primed(vals)
		got, exp := call(s), call(rand.New(want))
		if !slices.Equal(got, exp) {
			t.Fatalf("%s: %v, math/rand gives %v", name, got, exp)
		}
		if g, w := s.Int63(), want.Int63(); g != w {
			t.Fatalf("%s: the next draw is %d, math/rand's %d", name, g, w)
		}
	}
	for _, n := range []int{3, 5, 6, 1000, 1<<30 + 1, 1<<31 - 1} {
		limit := 1<<31 - 1 - (1<<31)%int64(n)
		for _, v := range []int64{limit - 1, limit, limit + 1, 1<<31 - 1} {
			check(fmt.Sprintf("Intn(%d) at Int31 %d", n, v), []int64{v<<32 | 12345, v << 32, 77 << 32},
				func(src drawer) []int {
					return []int{src.Intn(n)}
				})
		}
	}
	for _, n := range []int64{1<<31 + 1, 1<<62 + 1, 3 << 61, math.MaxInt64} {
		if n > math.MaxInt {
			continue // a 32-bit int cannot pass n to Intn
		}
		limit := int64(1<<63 - 1 - (1<<63)%uint64(n))
		for _, v := range []int64{limit - 1, limit, limit + 1, math.MaxInt64} {
			check(fmt.Sprintf("Intn(%d) at %d", n, v), []int64{v, limit, 12345},
				func(src drawer) []int {
					return []int{src.Intn(int(n))}
				})
		}
	}
	for _, n := range []uint32{3, 5, 101} {
		// The first swap draws in [0, n): choose its 32-bit draw v so that
		// the low word of v·n lands at, below and above the threshold
		// 2³² mod n, and at n, where Lemire's method stops checking.
		inv := n // n·inv ≡ 1 mod 2³², by Newton's iteration
		for range 5 {
			inv *= 2 - n*inv
		}
		thresh := -n % n
		for _, low := range []uint32{0, thresh - 1, thresh, thresh + 1, n - 1, n} {
			v := low * inv
			check(fmt.Sprintf("Shuffle(%d) at low word %d", n, low), []int64{int64(v)<<31 | 5},
				func(src drawer) []int {
					var swaps []int
					src.Shuffle(int(n), func(i, j int) { swaps = append(swaps, i, j) })
					return swaps
				})
		}
	}
}

// TestInvalidArgumentsPanic requires math/rand's panics.
func TestInvalidArgumentsPanic(t *testing.T) {
	s := NewStream(1)
	for name, f := range map[string]func(){
		"Intn(0)":     func() { s.Intn(0) },
		"Intn(-1)":    func() { s.Intn(-1) },
		"Shuffle(-1)": func() { s.Shuffle(-1, func(i, j int) {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// FuzzStreamMatchesMathRand runs a fuzzed sequence of calls on a Stream
// and on math/rand's stream of a fuzzed seed. Each byte of ops picks a
// call, and the byte after it its size: Int63, Float64, Intn of a
// small, 31-bit-edge or 63-bit value, Shuffle, or a Read63 block.
func FuzzStreamMatchesMathRand(f *testing.F) {
	f.Add(int64(0), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(int64(-1), []byte{6, 255, 6, 255, 6, 255, 2, 9})
	f.Add(int64(lcgMod), []byte{3, 200, 4, 100, 5, 50, 1, 0})
	f.Add(int64(math.MinInt64), []byte{2, 1, 2, 2, 2, 3, 6, 200, 5, 255})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		p := newPair(t, seed)
		p.what = fmt.Sprint("seed ", seed)
		for i := 0; i+1 < len(ops); i += 2 {
			arg := int(ops[i+1])
			switch ops[i] % 7 {
			case 0:
				p.same("Int63", p.s.Int63(), p.r.Int63())
			case 1:
				p.same("Float64", p.s.Float64(), p.r.Float64())
			case 2:
				n := arg + 1
				p.same("Intn", p.s.Intn(n), p.r.Intn(n))
			case 3:
				p.sameIntn(1<<31 - 128 + int64(arg))
			case 4:
				p.sameIntn(1<<62 + int64(arg)<<54 + int64(arg))
			case 5:
				p.sameShuffle(arg * 3)
			default:
				p.sameRead(arg * 5)
			}
		}
	})
}

// int63Only is a Source that is not a *Stream, so Below reads it one
// Int63 at a time.
type int63Only struct{ s *Stream }

func (o int63Only) Int63() int64 { return o.s.Int63() }

// FuzzBelowMatchesRead63 holds Below to Read63 plus a scalar compare:
// the word, ok, the draws left in xs when ok is false, and the stream's
// position afterwards, on a *Stream through Below's dispatch (the AVX2
// kernel on a CPU that has it), on a *Stream through the Go loop
// (below with vec false, on any CPU), and through a plain Source. The
// stream is advanced 0–606 draws first, so blocks of 1–64 draws start
// anywhere and straddle the feed or tap index wrap. Thresholds are 0,
// Redraw, a draw itself and the value above it, and random. plant can
// put one draw at Redraw−1, Redraw or 2⁶³−1, which a seeded stream
// never draws, at any block position: bits 0–5 pick the position and
// bits 6–7 the value, 0 for none.
func FuzzBelowMatchesRead63(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(63), int64(1), uint8(0))
	f.Add(int64(-5), uint16(300), uint8(63), int64(2), uint8(2<<6|40))
	f.Add(int64(lcgMod), uint16(570), uint8(63), int64(3), uint8(3<<6|50))
	f.Add(int64(7), uint16(606), uint8(0), int64(4), uint8(2<<6))
	f.Add(int64(8), uint16(543), uint8(31), int64(5), uint8(1<<6|20))
	// Seeding leaves feed at lag and tap at 0, so a 64-draw block that
	// starts r draws before the feed wrap (334 draws in) or the tap wrap
	// (607 in) splits into runs of r and 64−r draws: for r = 1–4, runs of
	// every length mod 4, with the kernel's scalar tail. The planted draw
	// is the block's last, in a tail but for r = 4.
	for r := 1; r <= 4; r++ {
		for _, wrap := range []int{length - lag, length} {
			f.Add(int64(8+r), uint16(wrap-r), uint8(63), int64(5+r), uint8((r%3+1)<<6|63))
		}
	}
	// 7-draw blocks across each wrap: runs of 2 and 5, the draw planted
	// in a tail.
	f.Add(int64(13), uint16(length-lag-2), uint8(6), int64(10), uint8(2<<6|6))
	f.Add(int64(14), uint16(length-2), uint8(6), int64(11), uint8(3<<6|1))
	f.Fuzz(func(t *testing.T, seed int64, advance uint16, n uint8, kseed int64, plant uint8) {
		s := NewStream(seed)
		var d [64]int64
		for a := int(advance) % length; a > 0; a -= 64 {
			Read63(s, d[:min(a, 64)])
		}
		m := 1 + int(n)%64
		if pos, v := int(plant&63), plant>>6; v != 0 && pos < m {
			Plant(s, pos, []int64{Redraw - 1, Redraw, mask}[v-1])
		}
		want := *s
		Read63(&want, d[:m])
		r := rand.New(rand.NewSource(kseed))
		ks := make([]int64, m)
		var word uint64
		ok := true
		for q := range ks {
			switch r.Intn(5) {
			case 0:
			case 1:
				ks[q] = Redraw
			case 2:
				ks[q] = min(d[q], Redraw)
			case 3:
				ks[q] = min(d[q], Redraw-1) + 1
			default:
				ks[q] = r.Int63n(Redraw + 1)
			}
			if d[q] < ks[q] {
				word |= 1 << q
			}
			ok = ok && d[q] < Redraw
		}
		loop, slow := *s, *s
		paths := []struct {
			name  string
			s     *Stream
			below func(xs *[64]int64) (uint64, bool)
		}{
			{"dispatch", s, func(xs *[64]int64) (uint64, bool) { return Below(s, ks, xs) }},
			{"go", &loop, func(xs *[64]int64) (uint64, bool) { return loop.below(ks, xs[:m], false) }},
			{"Source", &slow, func(xs *[64]int64) (uint64, bool) { return Below(int63Only{&slow}, ks, xs) }},
		}
		for _, p := range paths {
			var xs [64]int64
			got, gotOK := p.below(&xs)
			if got != word || gotOK != ok {
				t.Fatalf("%s, %d draws: Below = %#x, %v; want %#x, %v", p.name, m, got, gotOK, word, ok)
			}
			if !ok && !slices.Equal(xs[:m], d[:m]) {
				t.Fatalf("%s: xs = %v, want %v", p.name, xs[:m], d[:m])
			}
		}
		for i := range length + 1 {
			w := want.Int63()
			for _, p := range paths {
				if x := p.s.Int63(); x != w {
					t.Fatalf("%s: draw %d after Below = %d, want %d", p.name, i, x, w)
				}
			}
		}
	})
}

// BenchmarkSeed reseeds one stream in place.
func BenchmarkSeed(b *testing.B) {
	s := NewStream(1)
	for i := 0; i < b.N; i++ {
		s.Seed(int64(i))
	}
}

// BenchmarkRead63 reads one product-sampler shot, 64 draws, per op.
func BenchmarkRead63(b *testing.B) {
	s := NewStream(1)
	var buf [64]int64
	for i := 0; i < b.N; i++ {
		Read63(s, buf[:])
	}
}

// BenchmarkBelow compares one product-sampler shot, 64 draws, per op,
// through the dispatch Below takes, which runs the AVX2 kernel on a CPU
// that has AVX2, and through the Go loop. Equal times mean the CPU
// lacks AVX2 or the GOARCH is not amd64.
func BenchmarkBelow(b *testing.B) {
	var ks [64]int64
	for q := range ks {
		ks[q] = int64(q) << 56
	}
	for _, path := range []struct {
		name string
		vec  bool
	}{{"dispatch", true}, {"go", false}} {
		b.Run(path.name, func(b *testing.B) {
			s := NewStream(1)
			var xs [64]int64
			for i := 0; i < b.N; i++ {
				s.below(ks[:], xs[:], path.vec)
			}
		})
	}
}
