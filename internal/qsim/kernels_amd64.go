package qsim

// The amd64 vector kernel and its dispatch (DESIGN.md §11.5). The
// assembly is kernels_amd64.s; kernels_other.go declines on every
// other GOARCH.

// haveAVX reports whether the CPU executes AVX and the OS saves the YMM
// registers across context switches. It is computed once, at package
// init; nothing else selects the path.
var haveAVX = detectAVX()

// detectAVX reads CPUID.1:ECX bits 27 (OSXSAVE) and 28 (AVX), then
// XGETBV(0) bits 1 and 2 (the OS saves XMM and YMM state). XGETBV
// faults without OSXSAVE, so it runs only after that bit.
func detectAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if cpuid1ECX()&(osxsave|avx) != osxsave|avx {
		return false
	}
	return xgetbv0()&6 == 6
}

// realPairsVec applies the real matrix u to r, which holds whole blocks
// of 2·stride amplitudes and a multiple of 8, with realPairsAVX, and
// reports whether it did: false, having touched nothing, on a CPU
// without AVX.
func realPairsVec(r []float64, stride int, u *[4]float64) bool {
	if !haveAVX {
		return false
	}
	realPairsAVX(r, stride, u)
	return true
}

// realPairsAVX applies u to the pairs (r[b+j], r[b+j+stride]) of every
// block b of r, four pairs per instruction, each lane rounding where
// the Go loops round (kernels_amd64.s). len(r) must be a multiple of
// 2·stride and of 8.
//
//go:noescape
func realPairsAVX(r []float64, stride int, u *[4]float64)

// cpuid1ECX returns ECX of CPUID leaf 1.
func cpuid1ECX() uint32

// xgetbv0 returns the low word of XCR0, the state components the OS
// saves.
func xgetbv0() uint32
