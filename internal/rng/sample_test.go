package rng_test

import (
	"math/rand"
	"testing"

	"qtenon/internal/circuit"
	"qtenon/internal/qsim/product"
	"qtenon/internal/rng"
)

// asSource is a *rng.Stream seen as a math/rand Source, so that a
// *rand.Rand's Float64 reads the stream's own draws.
type asSource struct{ *rng.Stream }

func (asSource) Seed(int64) {}

// float64Sample is the product sampler's oracle from
// TestSampleMatchesFloat64Draw (internal/qsim/product): one
// r.Float64() < P1(q) test per qubit, shot-major and qubit-minor.
func float64Sample(ps *product.State, shots int, r *rand.Rand) []uint64 {
	out := make([]uint64, shots)
	for s := range out {
		for q := range ps.NQubits() {
			if r.Float64() < ps.P1(q) && q < 64 {
				out[s] |= 1 << q
			}
		}
	}
	return out
}

// TestSampleRedoFromStream plants one draw at or above rng.Redraw, which
// a seeded stream never makes, at every position of the second shot's
// block, in blocks clear of the stream's index wraps and straddling its
// feed and its tap wrap. product.Sample must then redo that shot from
// the draws the fused block compare leaves in the stream, and return the
// Float64 oracle's words and leave the stream where the oracle leaves
// it.
func TestSampleRedoFromStream(t *testing.T) {
	angles := rand.New(rand.NewSource(31))
	for _, n := range []int{5, 64, 70} {
		ps := product.New(n)
		for q := range n {
			ps.Apply(circuit.Gate{Kind: circuit.RY, Qubit: q, Theta: angles.Float64() * 3.2})
		}
		// Seeding leaves feed at 273 and tap at 0: a block that starts
		// 300 draws in crosses the feed index wrap, one that starts 570
		// in crosses the tap index wrap.
		for _, start := range []int{n, 300, 570} {
			for pos := range min(n, 64) {
				s := rng.NewStream(int64(start + pos))
				for range start - n {
					s.Int63()
				}
				rng.Plant(s, n+pos, []int64{rng.Redraw, 1<<63 - 1}[pos%2])
				want := *s
				wantWords := float64Sample(ps, 3, rand.New(asSource{&want}))
				got := ps.Sample(3, s)
				for i := range got {
					if got[i] != wantWords[i] {
						t.Fatalf("n=%d, block at draw %d, redraw at %d: shot %d = %#x, want %#x", n, start, pos, i, got[i], wantWords[i])
					}
				}
				if g, w := s.Int63(), want.Int63(); g != w {
					t.Fatalf("n=%d, block at draw %d, redraw at %d: next draw %d, want %d", n, start, pos, g, w)
				}
			}
		}
	}
}
