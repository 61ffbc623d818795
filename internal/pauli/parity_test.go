package pauli

import (
	"math/bits"
	"math/rand"
	"testing"
)

// EstimateFromCounts is the per-shot estimate the parity kernel
// replaced: the mean over outcomes of each shot's ±1 eigenvalue on the
// string's support, or 0 without outcomes. It is the oracle the kernel
// is held to.
func EstimateFromCounts(s Str, outcomes []uint64) float64 {
	if len(outcomes) == 0 {
		return 0
	}
	mask := s.Mask()
	var sum float64
	for _, o := range outcomes {
		sum += float64(1 - 2*(bits.OnesCount64(o&mask)&1))
	}
	return sum / float64(len(outcomes))
}

// perShotDiagonal is EstimateDiagonal written per shot and per term.
func perShotDiagonal(h *Hamiltonian, outcomes []uint64) float64 {
	if len(outcomes) == 0 {
		return 0
	}
	e := h.Offset
	for _, t := range h.Terms {
		e += float64(t.Coeff * EstimateFromCounts(t.Str, outcomes))
	}
	return e
}

// randomZString returns a Z string on a random non-empty subset of the
// first nq qubits: dense masks, or one or two qubits as in VQE and MaxCut.
func randomZString(rng *rand.Rand, nq int) Str {
	var mask uint64
	switch rng.Intn(3) {
	case 0:
		mask = 1 << rng.Intn(nq)
	case 1:
		mask = 1<<rng.Intn(nq) | 1<<rng.Intn(nq)
	default:
		mask = rng.Uint64() >> (64 - nq)
	}
	if mask == 0 {
		mask = 1
	}
	var fs []Factor
	for m := mask; m != 0; m &= m - 1 {
		fs = append(fs, Factor{Qubit: bits.TrailingZeros64(m), Axis: ZAxis})
	}
	return MustStr(fs...)
}

// FuzzParityCountsMatchPerShot holds the bit-sliced kernel to the
// per-shot oracle, bit for bit: the odd counts, the diagonal estimate
// and the grouped estimate over interleaved index lists. Shot counts
// need not be multiples of 64, and term counts run past one termChunk.
func FuzzParityCountsMatchPerShot(f *testing.F) {
	f.Add(int64(1), uint8(63), uint16(500), uint16(250))
	f.Add(int64(2), uint8(3), uint16(65), uint16(3))
	f.Add(int64(3), uint8(0), uint16(1), uint16(1))
	f.Add(int64(4), uint8(41), uint16(4097), uint16(300))
	f.Add(int64(5), uint8(11), uint16(0), uint16(7))
	f.Add(int64(6), uint8(63), uint16(64), uint16(termChunk+1))
	f.Fuzz(func(t *testing.T, seed int64, width uint8, shots, nterms uint16) {
		rng := rand.New(rand.NewSource(seed))
		nq := 1 + int(width)%64
		n := int(shots) % 5000
		outcomes := make([]uint64, n)
		for i := range outcomes {
			outcomes[i] = rng.Uint64() >> (64 - nq)
		}
		h := NewHamiltonian(nq)
		h.Offset = rng.NormFloat64()
		for range int(nterms) % 400 {
			h.MustAdd(rng.NormFloat64(), randomZString(rng, nq))
		}

		masks := make([]uint64, len(h.Terms))
		for i, term := range h.Terms {
			masks[i] = term.Str.Mask()
		}
		odd := make([]int, len(masks))
		oddCounts(outcomes, masks, odd)
		for i, m := range masks {
			want := 0
			for _, o := range outcomes {
				want += bits.OnesCount64(o&m) & 1
			}
			if odd[i] != want {
				t.Fatalf("term %d (mask %#x): odd count %d, want %d", i, m, odd[i], want)
			}
		}

		if got, want := h.EstimateDiagonal(outcomes), perShotDiagonal(h, outcomes); got != want {
			t.Fatalf("EstimateDiagonal = %v, per-shot %v", got, want)
		}

		var even, odds Group
		for i := range h.Terms {
			if i%2 == 0 {
				even.TermIdx = append(even.TermIdx, i)
			} else {
				odds.TermIdx = append(odds.TermIdx, i)
			}
		}
		want := h.Offset
		for _, g := range []Group{even, odds} {
			for _, ti := range g.TermIdx {
				want += float64(h.Terms[ti].Coeff * EstimateFromCounts(h.Terms[ti].Str, outcomes))
			}
		}
		if got := h.EstimateFromGroupCounts([]Group{even, odds}, [][]uint64{outcomes, outcomes}); got != want {
			t.Fatalf("EstimateFromGroupCounts = %v, per-shot %v", got, want)
		}
	})
}
