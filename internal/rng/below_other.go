//go:build !amd64

package rng

// belowRun runs the Go loop: off amd64 no kernel has an assembly form.
func belowRun(f, t, k []int64, _ bool) (bits uint64, over int64) {
	return belowRunGo(f, t, k)
}
