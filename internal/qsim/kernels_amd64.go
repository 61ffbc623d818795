package qsim

import "qtenon/internal/cpuid"

// The amd64 vector kernel and its dispatch (DESIGN.md §11.5). The
// assembly is kernels_amd64.s; kernels_other.go declines on every
// other GOARCH. cpuid.AVX, probed once at init, decides the path.

// realPairsVec applies the real matrix u to r, which holds whole blocks
// of 2·stride amplitudes and a multiple of 8, with realPairsAVX, and
// reports whether it did: false, having touched nothing, on a CPU
// without AVX.
func realPairsVec(r []float64, stride int, u *[4]float64) bool {
	if !cpuid.AVX {
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
