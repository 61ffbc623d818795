package qsim

import (
	"math"
	"math/rand"
	"testing"

	"qtenon/internal/circuit"
)

// sincosAngles returns gate angles θ for the one-Sincos rotations,
// which evaluate at θ/2: ±0; subnormals; every multiple of π/4 up to
// ±16π; angles whose half reaches math's reduceThreshold, 2²⁹, and past
// it to the largest float64, where Sincos reduces by trigReduce; and
// random angles in ±4π, in ±1000 and from random finite bit patterns.
func sincosAngles() []float64 {
	th := []float64{0, math.Copysign(0, -1), 5e-324, 0x1p-1060, 0x1p-1022 - 5e-324, 0x1p-1022}
	for k := -64; k <= 64; k++ {
		th = append(th, float64(k)*math.Pi/4)
	}
	for _, x := range []float64{0x1p29, 0x1p30, 0x1p31, 1e10, 1e15, 0x1p60, 1e300} {
		th = append(th, math.Nextafter(x, 0), x, math.Nextafter(x, math.Inf(1)))
	}
	th = append(th, math.MaxFloat64)
	r := rand.New(rand.NewSource(31))
	for range 20000 {
		th = append(th, (r.Float64()*2-1)*4*math.Pi, (r.Float64()*2-1)*1000)
		if x := math.Float64frombits(r.Uint64()); !math.IsNaN(x) && !math.IsInf(x, 0) {
			th = append(th, x)
		}
	}
	for i, n := 0, len(th); i < n; i++ {
		th = append(th, -th[i])
	}
	return th
}

// TestOneSincosMatchesOldMatrices holds the rotations that now make one
// math.Sincos call to the matrices they built before, bit for bit: RX
// and RY from math.Cos and math.Sin, RZ and RZZ's phases from two
// Sincos calls at −θ/2 and θ/2 (DESIGN.md §11.2). Only a non-finite
// angle differs, in the sign of a NaN; no engine sees one.
func TestOneSincosMatchesOldMatrices(t *testing.T) {
	for _, th := range sincosAngles() {
		c, s := math.Cos(th/2), math.Sin(th/2)
		old := map[circuit.Kind][4]complex128{
			circuit.RX: {complex(c, 0), complex(0, -s), complex(0, -s), complex(c, 0)},
			circuit.RY: {complex(c, 0), complex(-s, 0), complex(s, 0), complex(c, 0)},
			circuit.RZ: {expI(-th / 2), 0, 0, expI(th / 2)},
		}
		for k, want := range old {
			got, _ := gateMatrix1Q(circuit.Gate{Kind: k, Theta: th})
			if !sameBits(got[:], want[:]) {
				t.Fatalf("%v(%v): matrix %v, before %v", k, th, got, want)
			}
		}
		e0, e1 := expIPair(th / 2)
		if want := []complex128{expI(-th / 2), expI(th / 2)}; !sameBits([]complex128{e0, e1}, want) {
			t.Fatalf("RZZ(%v): phases %v %v, before %v", th, e0, e1, want)
		}
	}
}
