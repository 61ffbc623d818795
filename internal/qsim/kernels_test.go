package qsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestRealPairsMatchFrozen holds the real pair kernel on re alone to
// its frozen copy (frozen_test.go) on raw bits, at every stride of a
// 2^10-amplitude array, over the whole range, which takes the block
// loops at strides 1, 2 and 4, and over ranges that cut stride blocks,
// which take the run decode.
func TestRealPairsMatchFrozen(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 1 << 10
	u := [4]float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	for stride := 1; stride < n; stride <<= 1 {
		for _, r := range [][2]int{{0, n / 2}, {1, n/2 - 3}, {stride, n / 2}, {3, 5}} {
			lo, hi := r[0], r[1]
			got := fuzzValues(rng, n)
			want := append([]float64(nil), got...)
			apply1QRealPairs(got, nil, stride, u, lo, hi)
			frozenApply1QRealPairs(want, nil, stride, u, lo, hi)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("stride %d pairs [%d,%d): re[%d] = %#x, frozen %#x", stride, lo, hi, i,
						math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
	}
}

// brick returns the sign terms of the VQE ansatz's first CZ brick on n
// qubits, in program order: CZ on the even pairs, then the odd pairs.
func brick(n int) []signTerm {
	params := make([]float64, 3*n)
	for i := range params {
		params[i] = 0.3
	}
	var p program
	p.compile(vqeCircuit(n, params).Gates)
	for i := range p.ops {
		if d := p.preps[i]; p.ops[i].kind == opDiag {
			return p.signs[d.signOff : d.signOff+d.signLen]
		}
	}
	panic("qsim: VQE ansatz without a CZ brick")
}

// cz returns the sign term of CZ(a, b), a < b.
func cz(a, b uint) signTerm { return signTerm{sA: a, sB: b, lut: 8} }

// BenchmarkSignBatch times one sign batch on one chunk two ways: the
// frozen stride loops, which touch only the negated amplitudes one term
// at a time (frozenApplySignTermsChunk), and applySignTermsChunk's
// sweep, one pass over 64-amplitude blocks for the whole batch.
// Tiles are the dense engine's 2^12 amplitudes, of re alone unless the
// case says im; the 23-term brick runs on one 2^16-amplitude shard of a
// 24-qubit state.
func BenchmarkSignBatch(b *testing.B) {
	cases := []struct {
		name  string
		k     int
		base  int
		im    bool
		terms []signTerm
	}{
		{"cz-low", tileBits, 0, false, []signTerm{cz(3, 4)}},
		{"cz-high", tileBits, 0, false, []signTerm{cz(9, 10)}},
		{"cz-low-im", tileBits, 0, true, []signTerm{cz(3, 4)}},
		{"3terms-bits3-8", tileBits, 0, false, []signTerm{cz(3, 4), cz(5, 6), cz(7, 8)}},
		{"3terms-bits0-5", tileBits, 0, false, []signTerm{cz(0, 1), cz(2, 3), cz(4, 5)}},
		{"4terms-bits6-11", tileBits, 0, false, []signTerm{cz(6, 7), cz(8, 9), cz(10, 11), cz(7, 8)}},
		{"brick11", tileBits, 0, false, brick(12)},
		{"brick11-im", tileBits, 0, true, brick(12)},
		{"brick23-shard", DefaultShardBits, 5 << DefaultShardBits, false, brick(24)},
	}
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(1))
		re := fuzzValues(rng, 1<<tc.k)
		var im []float64
		if tc.im {
			im = fuzzValues(rng, 1<<tc.k)
		}
		for _, path := range []struct {
			name string
			run  func(re, im []float64, terms []signTerm, base int)
		}{{"loops", frozenApplySignTermsChunk}, {"sweep", applySignTermsChunk}} {
			b.Run(fmt.Sprintf("%s/%dterms/%s", tc.name, len(tc.terms), path.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					path.run(re, im, tc.terms, tc.base)
				}
			})
		}
	}
}

// BenchmarkAliasBuild times one alias-table build over the measurement
// distribution of the 12-qubit VQE ansatz, the table the dense engine
// builds on every Sample of vqe12-gd.
func BenchmarkAliasBuild(b *testing.B) {
	s := NewState(12)
	if err := s.Run(shiftIteration(12)[0]); err != nil {
		b.Fatal(err)
	}
	p := s.Probabilities()
	var total float64
	for _, v := range p {
		total += v
	}
	w := make([]float64, len(p))
	sc := newAliasScratch()
	var t aliasTable
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(w, p)
		t.build(w, total, sc)
	}
}

// BenchmarkApply1QRealStride times the real pair kernel on re alone, a
// real-prefix RY, over a 12-qubit array at qubits 0–4 and 8: the block
// loops at qubits 0–2 and the run decode above.
func BenchmarkApply1QRealStride(b *testing.B) {
	re := make([]float64, 1<<12)
	for i := range re {
		re[i] = float64(i%7) / 8
	}
	sn, c := math.Sincos(0.3)
	u := [4]float64{c, -sn, sn, c}
	for _, q := range []int{0, 1, 2, 3, 4, 8} {
		b.Run(fmt.Sprintf("q%d", q), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				apply1QRealPairs(re, nil, 1<<q, u, 0, len(re)/2)
			}
		})
	}
}
