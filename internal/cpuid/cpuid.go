// Package cpuid reports, once at package init, which vector
// instruction sets the module's amd64 kernels may use: AVX for
// qsim's real pair kernel and AVX2 for rng's block compare (DESIGN.md
// §11.5). The CPU alone decides; no option, environment variable or
// build tag selects a path. Off amd64 both report false, and every
// kernel runs its Go loop.
package cpuid
