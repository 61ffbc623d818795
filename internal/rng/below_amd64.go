package rng

import "qtenon/internal/cpuid"

// belowRun is one run of a Below block (belowRunGo gives the contract):
// belowRunAVX2 when vec holds and the CPU has AVX2, probed once at init
// (cpuid.AVX2), else the Go loop.
func belowRun(f, t, k []int64, vec bool) (bits uint64, over int64) {
	if vec && cpuid.AVX2 {
		return belowRunAVX2(f, t, k)
	}
	return belowRunGo(f, t, k)
}

// belowRunAVX2 is belowRunGo four draws per instruction, with the same
// words, bits and check (below_amd64.s). len(f) == len(t) == len(k) ≤
// 64, and f does not overlap t.
//
//go:noescape
func belowRunAVX2(f, t, k []int64) (bits uint64, over int64)
