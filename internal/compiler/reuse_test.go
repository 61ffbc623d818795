package compiler

import (
	"math/rand"
	"reflect"
	"testing"

	"qtenon/internal/circuit"
	"qtenon/internal/qcc"
)

// Buffer-reuse equivalence: the Append* forms must produce byte-for-byte
// the same images and delta plans as the allocating originals, for any
// parameter vector and any recycled-buffer history. Fuzzed over random
// parameter walks because the Diff path's behaviour depends on which
// quantized values happen to collide.

// compileParams builds a program with p independent parameter slots.
func compileParams(t *testing.T, p int) *Program {
	t.Helper()
	b := circuit.NewBuilder(p)
	for q := 0; q < p; q++ {
		b.RXP(q, q)
	}
	prog, err := Compile(b.MustBuild(), qcc.DefaultConfig(p))
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func randomWalk(rng *rand.Rand, params []float64) {
	// Mix of no-ops, sub-quantization nudges and real moves, so diffs of
	// every size (including empty) appear.
	for i := range params {
		switch rng.Intn(4) {
		case 0:
		case 1:
			params[i] += 1e-12
		default:
			params[i] += rng.NormFloat64()
		}
	}
}

func TestAppendRegfileImageMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prog := compileParams(t, 6)
	params := make([]float64, 6)
	var scratch []uint32
	for iter := 0; iter < 200; iter++ {
		randomWalk(rng, params)
		fresh, err := prog.AppendRegfileImage(nil, params)
		if err != nil {
			t.Fatal(err)
		}
		reused, err := prog.AppendRegfileImage(scratch[:0], params)
		if err != nil {
			t.Fatal(err)
		}
		scratch = reused
		if !reflect.DeepEqual(fresh, reused) {
			t.Fatalf("iter %d: reused image %v != fresh %v", iter, reused, fresh)
		}
	}
}

func TestAppendDiffMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	prog := compileParams(t, 8)
	oldP := make([]float64, 8)
	newP := make([]float64, 8)
	var scratch []Delta
	for iter := 0; iter < 300; iter++ {
		copy(newP, oldP)
		randomWalk(rng, newP)
		fresh, err := prog.Diff(oldP, newP)
		if err != nil {
			t.Fatal(err)
		}
		reused, err := prog.AppendDiff(scratch[:0], oldP, newP)
		if err != nil {
			t.Fatal(err)
		}
		scratch = reused
		if len(fresh) != len(reused) {
			t.Fatalf("iter %d: %d deltas reused vs %d fresh", iter, len(reused), len(fresh))
		}
		for i := range fresh {
			if fresh[i] != reused[i] {
				t.Fatalf("iter %d delta %d: %+v != %+v", iter, i, reused[i], fresh[i])
			}
		}
		copy(oldP, newP)
	}
}

// TestAppendFormsPreserveDstPrefix checks the Append contract: existing
// elements of dst stay untouched.
func TestAppendFormsPreserveDstPrefix(t *testing.T) {
	prog := compileParams(t, 3)
	params := []float64{0.1, 0.2, 0.3}
	img, err := prog.AppendRegfileImage([]uint32{42, 43}, params)
	if err != nil {
		t.Fatal(err)
	}
	if img[0] != 42 || img[1] != 43 || len(img) != 5 {
		t.Fatalf("prefix clobbered or wrong length: %v", img)
	}
	deltas, err := prog.AppendDiff([]Delta{{Param: -1}}, []float64{0, 0, 0}, params)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) == 0 || deltas[0].Param != -1 {
		t.Fatalf("prefix clobbered: %+v", deltas)
	}
}

// TestLoadReusesImageScratch pins the arena behaviour Load relies on:
// repeated loads of the same program reuse one image buffer.
func TestLoadReusesImageScratch(t *testing.T) {
	prog := compileParams(t, 4)
	cache, err := qcc.NewCache(qcc.DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	params := []float64{1, 2, 3, 4}
	if err := prog.Load(cache, params); err != nil {
		t.Fatal(err)
	}
	first := &prog.imgScratch[0]
	params[2] = 9
	if err := prog.Load(cache, params); err != nil {
		t.Fatal(err)
	}
	if &prog.imgScratch[0] != first {
		t.Fatal("Load reallocated its image scratch on a same-shape reload")
	}
}
