package qcc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQuantizeAngleBasics(t *testing.T) {
	if QuantizeAngle(0) != 0 {
		t.Errorf("Quantize(0) = %d", QuantizeAngle(0))
	}
	if got := QuantizeAngle(math.Pi); got != 1<<(AngleBits-1) {
		t.Errorf("Quantize(π) = %d, want %d", got, 1<<(AngleBits-1))
	}
	// 2π wraps to 0.
	if got := QuantizeAngle(2 * math.Pi); got != 0 {
		t.Errorf("Quantize(2π) = %d", got)
	}
	// Negative angles fold into [0, 2π).
	if got, want := QuantizeAngle(-math.Pi/2), QuantizeAngle(3*math.Pi/2); got != want {
		t.Errorf("Quantize(-π/2) = %d, want %d", got, want)
	}
}

func TestQuantizeFitsDataField(t *testing.T) {
	for _, theta := range []float64{0, 1, -1, 100, -100, 2 * math.Pi, 6.283} {
		if q := QuantizeAngle(theta); q > MaxEntryData {
			t.Errorf("Quantize(%v) = %d exceeds 27-bit data field", theta, q)
		}
		if q := QuantizeAngle(theta); q >= 1<<AngleBits {
			t.Errorf("Quantize(%v) = %d exceeds %d bits", theta, q, AngleBits)
		}
	}
}

// Property: dequantize(quantize(θ)) is within half a quantization step,
// and quantization is idempotent.
func TestQuantizeRoundTripProperty(t *testing.T) {
	step := 2 * math.Pi / (1 << AngleBits)
	f := func(theta float64) bool {
		if math.IsNaN(theta) || math.IsInf(theta, 0) || math.Abs(theta) > 1e6 {
			return true
		}
		q := QuantizeAngle(theta)
		back := DequantizeAngle(q)
		folded := math.Mod(theta, 2*math.Pi)
		if folded < 0 {
			folded += 2 * math.Pi
		}
		diff := math.Abs(back - folded)
		if diff > math.Pi {
			diff = 2*math.Pi - diff
		}
		return diff <= step && QuantizeAngle(back) == q
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// frozenQuantizeAngle is QuantizeAngle before it skipped math.Mod
// inside (−2π, 2π): it reduces every angle.
func frozenQuantizeAngle(theta float64) uint32 {
	t := math.Mod(theta, 2*math.Pi)
	if t < 0 {
		t += 2 * math.Pi
	}
	q := uint32(math.Round(t / (2 * math.Pi) * (1 << AngleBits)))
	return q & (1<<AngleBits - 1)
}

// TestQuantizeAngleMatchesMod holds QuantizeAngle to its frozen form on
// ±0, ±2π and the floats on either side of each, ±π, subnormals,
// ±1e300, NaN, ±Inf and a million random angles in (−8, 8).
func TestQuantizeAngleMatchesMod(t *testing.T) {
	angles := []float64{0, math.Copysign(0, -1), math.Pi, -math.Pi,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1p-1030,
		1e300, -1e300, math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, e := range []float64{2 * math.Pi, -2 * math.Pi} {
		angles = append(angles, e, math.Nextafter(e, 0), math.Nextafter(e, 2*e))
	}
	r := rand.New(rand.NewSource(1))
	for range 1_000_000 {
		angles = append(angles, 16*r.Float64()-8)
	}
	for _, theta := range angles {
		if got, want := QuantizeAngle(theta), frozenQuantizeAngle(theta); got != want {
			t.Fatalf("QuantizeAngle(%v) = %d, the math.Mod form gives %d", theta, got, want)
		}
	}
}
