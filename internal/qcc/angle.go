package qcc

import "math"

// Angle quantization for the .program Data field.
//
// The SLT consumes only 24 bits of a parameter (4 index bits + 20 tag
// bits, Figure 7), so the compiler quantizes rotation angles to 24-bit
// fixed point over [0, 2π). Two angles that quantize equally are — by
// design — the same drive pulse; the quantization step (2π/2^24 ≈ 3.7e-7
// rad) is far below NISQ control precision. The 27-bit Data field keeps
// its top 3 bits zero for immediates, reserving them for future gate
// metadata.

// AngleBits is the effective quantized angle precision.
const AngleBits = 24

// QuantizeAngle folds theta into [0, 2π) and quantizes to AngleBits bits.
// math.Mod(x, 2π) returns x itself when |x| < 2π, since its reduction
// loop runs only while the remainder is at least 2π, so only angles
// outside (−2π, 2π), NaN and ±Inf among them, call it.
func QuantizeAngle(theta float64) uint32 {
	t := theta
	if !(theta > -2*math.Pi && theta < 2*math.Pi) {
		t = math.Mod(theta, 2*math.Pi)
	}
	if t < 0 {
		t += 2 * math.Pi
	}
	q := uint32(math.Round(t / (2 * math.Pi) * (1 << AngleBits)))
	return q & (1<<AngleBits - 1)
}

// DequantizeAngle reverses QuantizeAngle to the center of the bucket.
// The quotient, which compilers compute as a product, is rounded
// explicitly: arm64 would otherwise fuse it into the doubling, which
// it computes as a sum (DESIGN.md §11.2).
func DequantizeAngle(data uint32) float64 {
	return float64(float64(data&(1<<AngleBits-1))/(1<<AngleBits)) * 2 * math.Pi
}
