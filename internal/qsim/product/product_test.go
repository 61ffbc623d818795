package product

import (
	"math"
	"math/rand"
	"testing"
)

// sampleFloat64 is Sample as it was written before the integer
// thresholds: one rng.Float64() < P1(q) test per qubit, shot-major and
// qubit-minor. It is the oracle Sample is held to.
func sampleFloat64(ps *State, shots int, rng *rand.Rand) []uint64 {
	n := ps.NQubits()
	out := make([]uint64, shots)
	for s := range out {
		var v uint64
		for q := 0; q < n; q++ {
			if rng.Float64() < ps.P1(q) && q < 64 {
				v |= 1 << q
			}
		}
		out[s] = v
	}
	return out
}

// special are |1⟩ amplitudes whose P1 is 0, ½, 1, the float64 just above
// 1 (|a|²+|b|² can round past 1) and NaN.
var special = []complex128{0, complex(0.5, 0.5), 1, complex(1, 1.5e-8), complex(math.NaN(), 0)}

// script is a rand.Source that returns its values in turn, cycling.
type script struct {
	vals []int64
	next int
}

func (s *script) Int63() int64 {
	v := s.vals[s.next%len(s.vals)]
	s.next++
	return v
}

func (s *script) Seed(int64) {}

// TestSampleMatchesFloat64Draw requires Sample to return the oracle's
// outcome words and to leave the stream where the oracle leaves it, at
// widths around the 64-bit word, at shot counts around a block of 64,
// and with P1 at the special values and at random ones. A scripted
// source also feeds both the draws around 2⁶³−512, where Float64 starts
// rounding to 1 and drawing again, which a seeded stream never reaches.
func TestSampleMatchesFloat64Draw(t *testing.T) {
	edge := []int64{1<<63 - 1025, 1<<63 - 1024, 1<<63 - 513, 1<<63 - 512, 1<<63 - 511, 1<<63 - 1, 0, 1<<62 - 1, 1 << 62, 12345}
	for _, b := range special {
		ps := New(3)
		for q := range 3 {
			ps.b[q] = b
		}
		wantSrc := &script{vals: edge}
		want := sampleFloat64(ps, 7, rand.New(wantSrc))
		gotSrc := &script{vals: edge}
		got := ps.Sample(7, rand.New(gotSrc))
		for s := range want {
			if got[s] != want[s] {
				t.Fatalf("scripted draws, P1 = %v: shot %d = %#x, want %#x", ps.P1(0), s, got[s], want[s])
			}
		}
		if gotSrc.next != wantSrc.next {
			t.Fatalf("scripted draws, P1 = %v: Sample drew %d values, Float64 %d", ps.P1(0), gotSrc.next, wantSrc.next)
		}
	}

	above := New(1)
	above.b[0] = special[3]
	if !(above.P1(0) > 1) {
		t.Fatalf("special[3] gives P1 = %v, not above 1", above.P1(0))
	}
	for _, n := range []int{1, 5, 63, 64, 70} {
		for _, shots := range []int{1, 63, 64, 65, 500} {
			for mode := range 5 {
				ps := New(n)
				amp := rand.New(rand.NewSource(int64(n*1000 + shots*10 + mode)))
				for q := range n {
					switch mode {
					case 0, 1, 2: // all P1 = 0, ½ or 1
						ps.b[q] = special[mode]
					case 3: // the special values and random ones, mixed
						if q%2 == 0 {
							ps.b[q] = special[q/2%len(special)]
						} else {
							ps.b[q] = complex(amp.Float64(), 0)
						}
					default: // random
						ps.b[q] = complex(amp.Float64(), 0)
					}
				}
				seed := int64(n + shots + mode)
				wantRNG := rand.New(rand.NewSource(seed))
				want := sampleFloat64(ps, shots, wantRNG)
				gotRNG := rand.New(rand.NewSource(seed))
				got := ps.Sample(shots, gotRNG)
				for s := range want {
					if got[s] != want[s] {
						t.Fatalf("n=%d shots=%d mode=%d: shot %d = %#x, want %#x", n, shots, mode, s, got[s], want[s])
					}
				}
				if g, w := gotRNG.Int63(), wantRNG.Int63(); g != w {
					t.Fatalf("n=%d shots=%d mode=%d: stream ends at %d, want %d", n, shots, mode, g, w)
				}
			}
		}
	}
}

// FuzzSampleThreshold requires x < threshold(p) to hold exactly when
// math/rand's Float64 would return float64(x)/2⁶³ < p, for every float64
// p and every draw x that Float64 does not discard.
func FuzzSampleThreshold(f *testing.F) {
	for _, p := range []float64{0, math.Copysign(0, -1), 0.5, 1, math.Nextafter(1, 2), math.Nextafter(1, 0),
		math.NaN(), math.Inf(1), math.Inf(-1), -0.5, 5e-324, 0x1p-63, 0x1p-64} {
		f.Add(math.Float64bits(p), int64(0))
		f.Add(math.Float64bits(p), int64(redraw-1))
	}
	for _, x := range []int64{1, 1 << 52, 1<<53 + 1, 1<<62 + 511, 1<<62 + 513, redraw - 1024, redraw - 1} {
		p := float64(x) / (1 << 63)
		for _, q := range []float64{p, math.Nextafter(p, 0), math.Nextafter(p, 2)} {
			for d := int64(-2); d <= 2; d++ {
				f.Add(math.Float64bits(q), x+d)
			}
		}
	}
	f.Fuzz(func(t *testing.T, pbits uint64, x int64) {
		p := math.Float64frombits(pbits)
		x = (x & math.MaxInt64) % redraw // a draw Float64 does not discard
		k := threshold(p)
		if got, want := x < k, float64(x)/(1<<63) < p; got != want {
			t.Fatalf("p=%v x=%d: x < threshold (%d) is %v, Float64 test is %v", p, x, k, got, want)
		}
		// The threshold is the boundary itself: the draw below it passes
		// the Float64 test and the draw at it fails.
		if k > 0 && !(float64(k-1)/(1<<63) < p) {
			t.Fatalf("p=%v: draw %d below threshold fails the Float64 test", p, k-1)
		}
		if k < redraw && float64(k)/(1<<63) < p {
			t.Fatalf("p=%v: draw at threshold %d passes the Float64 test", p, k)
		}
	})
}
