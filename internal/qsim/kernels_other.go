//go:build !amd64

package qsim

// realPairsVec declines: off amd64 the real pair kernel runs its Go
// loops (DESIGN.md §11.5).
func realPairsVec(r []float64, stride int, u *[4]float64) bool { return false }
