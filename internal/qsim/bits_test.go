package qsim

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"qtenon/internal/qsim/product"
)

// amplitudeBitsDigest is the FNV-64a digest of the float bits below,
// recorded on amd64.
const amplitudeBitsDigest uint64 = 0xe06c12cf05a90a33

// TestAmplitudeBitsFrozen pins the exact float bits the dense and
// product engines compute, so a rounding change fails even when it
// reaches every engine at once and the equivalence suites still agree
// (DESIGN.md §11.2). It hashes the dense amplitudes of three seeded
// random circuits, run once through the fused Run and once gate by gate
// through Apply (the 15-qubit state is above par.SerialThreshold, so
// both run in parallel), and the product surrogate's P1 of all 64
// qubits after a 400-gate random circuit. Each value is hashed as x+0,
// which maps −0 to +0, because §11.2 lets the signs of zeros differ.
//
// The digest was recorded on amd64 and holds on 386 too. The engines
// round every product that feeds a sum explicitly, so their own
// arithmetic is the same on every GOARCH; but their gate matrices come
// from math.Sincos, whose pure-Go kernel arm64, ppc64le, s390x and
// riscv64 compile with fused multiply-adds, which round once where
// amd64 and 386 round twice (DESIGN.md §11.2). Those four, the targets
// CI's fma leg lists, skip it.
func TestAmplitudeBitsFrozen(t *testing.T) {
	switch runtime.GOARCH {
	case "arm64", "ppc64le", "s390x", "riscv64":
		t.Skipf("digest recorded on amd64; %s may fuse multiply-adds in math.Sincos", runtime.GOARCH)
	}
	h := fnv.New64a()
	var word [8]byte
	put := func(x float64) {
		binary.LittleEndian.PutUint64(word[:], math.Float64bits(x+0))
		h.Write(word[:])
	}
	putState := func(s *State) {
		re, im := s.ReIm()
		for i := range re {
			put(re[i])
			put(im[i])
		}
	}
	for _, n := range []int{3, 9, 15} {
		c := randomCircuit(rand.New(rand.NewSource(int64(n))), n, 80)
		fused, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		putState(fused)
		stepped := NewState(n)
		for _, g := range c.Gates {
			stepped.Apply(g)
		}
		putState(stepped)
	}
	ps := product.New(64)
	if err := ps.Run(randomCircuit(rand.New(rand.NewSource(64)), 64, 400)); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 64; q++ {
		put(ps.P1(q))
	}
	if got := h.Sum64(); got != amplitudeBitsDigest {
		t.Fatalf("amplitude bits digest = %#x, want %#x: an engine's rounding changed", got, amplitudeBitsDigest)
	}
}
