// Package rng is the single sanctioned construction site for
// pseudo-random streams in the Qtenon reproduction.
//
// Every stochastic component (the chip's measurement sampler, the noise
// model's trajectory draws, the TileLink bus arbiter, SPSA's Rademacher
// perturbations, the alias sampler's per-block sub-streams) must draw
// from an explicitly seeded *rand.Rand obtained here, so a run is a pure
// function of its configured seeds. Outside tests, no other package
// calls math/rand's package-level functions, rand.New or rand.NewSource.
// The golden RunResults pin every stream (DESIGN.md §9): a stream drawn
// from the global source, or seeded from the host, fails them.
//
// The streams are bit-for-bit identical to the pre-sweep inline
// rand.New(rand.NewSource(seed)) constructions, so golden RunResults
// pinned before the sweep are unchanged.
package rng

import "math/rand"

// New returns a deterministic stream seeded with seed. The stream is
// exactly rand.New(rand.NewSource(seed)): the sweep that introduced this
// package must not perturb any pinned golden output.
func New(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Derive folds a salt into a parent seed, giving an independent child
// stream with a stable, documented derivation. Components that need
// several streams from one configured seed (e.g. a noise model alongside
// its chip) derive rather than reusing the parent seed directly, so the
// streams never collide.
func Derive(seed, salt int64) int64 { return seed ^ salt }
