//go:build !amd64

package cpuid

// AVX and AVX2 are false off amd64, where no kernel has an assembly
// form.
var AVX, AVX2 = false, false
