package qsim

import (
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// FuzzRealPairsMatchFrozen holds the real pair kernel on re alone to
// its frozen copy (frozen_test.go) on raw bits, twice: through the
// dispatch (apply1QRealPairs, which runs the vector kernel where the
// CPU has one) and through the Go loops called directly
// (apply1QRealPairsGo). It covers 1–14 qubits, every stride, the whole
// range, which takes the vector kernel or the block loops, and ranges
// that cut stride blocks or hold no multiple of 8 amplitudes, which
// take the Go loops. Matrix entries mix ordinary values with ±0,
// subnormals, 1e±300 and 2^±1000; amplitudes are fuzzValues' with no
// NaN, since no engine sees one (DESIGN.md §11.2). A NaN that the
// arithmetic makes (∞·0, ∞−∞) matches any NaN: its payload may differ
// between the paths (§11.5).
func FuzzRealPairsMatchFrozen(f *testing.F) {
	// Every stride of a 10-qubit re, over the whole range, over ranges
	// that cut blocks, and over pairs [3, 5).
	for q := uint8(0); q < 9; q++ {
		stride := uint16(1) << q
		for _, r := range [][2]uint16{{0, 512}, {1, 509}, {stride, 512}, {3, 5}} {
			f.Add(int64(1), uint8(10), q, r[0], r[1])
		}
	}
	// 1- and 2-qubit states, where strides 1 and 2 keep the block loops,
	// and 3 qubits, the smallest the vector kernel takes at every stride.
	f.Add(int64(2), uint8(1), uint8(0), uint16(0), uint16(1))
	f.Add(int64(3), uint8(2), uint8(0), uint16(0), uint16(2))
	f.Add(int64(4), uint8(2), uint8(1), uint16(0), uint16(2))
	f.Add(int64(5), uint8(3), uint8(2), uint16(0), uint16(4))
	f.Add(int64(6), uint8(14), uint8(13), uint16(0), uint16(8192))
	f.Add(int64(7), uint8(12), uint8(1), uint16(6), uint16(2046))
	f.Fuzz(func(t *testing.T, seed int64, nq, q uint8, lo, hi uint16) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nq)%14
		stride := 1 << (int(q) % n)
		pairs := 1 << (n - 1)
		l, h := min(int(lo), pairs), min(int(hi), pairs)
		if h < l {
			l, h = h, l
		}
		var u [4]float64
		for i := range u {
			u[i] = fuzzEntry(rng)
		}
		re := fuzzValues(rng, 1<<n)
		for i, v := range re {
			if math.IsNaN(v) {
				re[i] = 0
			}
		}
		want := append([]float64(nil), re...)
		frozenApply1QRealPairs(want, nil, stride, u, l, h)
		for _, path := range []struct {
			name  string
			apply func(re, im []float64, stride int, u [4]float64, lo, hi int)
		}{{"dispatch", apply1QRealPairs}, {"go", apply1QRealPairsGo}} {
			got := append([]float64(nil), re...)
			path.apply(got, nil, stride, u, l, h)
			for i := range got {
				g, w := got[i], want[i]
				if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
					t.Fatalf("%s: %d qubits, stride %d, pairs [%d,%d), u %v: re[%d] = %#x, frozen %#x",
						path.name, n, stride, l, h, u, i, math.Float64bits(g), math.Float64bits(w))
				}
			}
		}
	})
}

// fuzzEntry returns a matrix entry: an ordinary value half the time,
// else ±0, a subnormal, or a scale of 1e±300 or 2^±1000.
func fuzzEntry(rng *rand.Rand) float64 {
	special := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 0x1p-1030,
		1e300, 1e-300, 0x1p1000, 0x1p-1000}
	if rng.Intn(2) == 0 {
		return rng.NormFloat64()
	}
	v := special[rng.Intn(len(special))]
	if rng.Intn(2) == 0 {
		v = -v
	}
	return v
}

// amd64AsmFiles is how many *_amd64.s files the module has under
// internal/: qsim's real pair kernel, rng's block compare and cpuid's
// probe.
const amd64AsmFiles = 3

// TestAVXKernelVEXOnly reads every *_amd64.s file under internal/ and
// fails on an instruction that names an X or Y register without a VEX
// encoding (a mnemonic not starting with V), and on a RET of a
// function that uses a Y register when VZEROUPPER does not come right
// before it. One legacy SSE instruction after a 256-bit one costs a
// state transition every time it runs (DESIGN.md §11.5). It fails too
// when it finds fewer files than amd64AsmFiles, so a renamed or moved
// file cannot leave the check silently.
func TestAVXKernelVEXOnly(t *testing.T) {
	var files []string
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err == nil && strings.HasSuffix(path, "_amd64.s") {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < amd64AsmFiles {
		t.Fatalf("found %d *_amd64.s files under internal/ (%v), want %d", len(files), files, amd64AsmFiles)
	}
	vecReg, yReg := regexp.MustCompile(`\b[XY]\d+\b`), regexp.MustCompile(`\bY\d+\b`)
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var ymm bool
		var prev string
		for i, line := range strings.Split(string(src), "\n") {
			line, _, _ = strings.Cut(line, "//")
			f := strings.Fields(line)
			if len(f) == 0 || strings.HasPrefix(f[0], "#") || strings.HasSuffix(f[0], ":") {
				continue
			}
			switch op := f[0]; {
			case op == "TEXT":
				ymm = false
			case op == "RET" && ymm && prev != "VZEROUPPER":
				t.Errorf("%s:%d: RET without VZEROUPPER before it", file, i+1)
			case vecReg.MatchString(line) && !strings.HasPrefix(op, "V"):
				t.Errorf("%s:%d: %s is not VEX-encoded", file, i+1, strings.TrimSpace(line))
			}
			ymm = ymm || yReg.MatchString(line)
			prev = f[0]
		}
	}
}

// brick returns the sign terms of the VQE ansatz's first CZ brick on n
// qubits, in program order: CZ on the even pairs, then the odd pairs.
func brick(n int) []signTerm {
	params := make([]float64, 3*n)
	for i := range params {
		params[i] = 0.3
	}
	var p program
	p.compile(vqeCircuit(n, params).Gates)
	for i := range p.ops {
		if d := p.preps[i]; p.ops[i].kind == opDiag {
			return p.signs[d.signOff : d.signOff+d.signLen]
		}
	}
	panic("qsim: VQE ansatz without a CZ brick")
}

// cz returns the sign term of CZ(a, b), a < b.
func cz(a, b uint) signTerm { return signTerm{sA: a, sB: b, lut: 8} }

// BenchmarkSignBatch times one sign batch on one chunk two ways: the
// frozen stride loops, which touch only the negated amplitudes one term
// at a time (frozenApplySignTermsChunk), and applySignTermsChunk's
// sweep, one pass over 64-amplitude blocks for the whole batch.
// Tiles are the dense engine's 2^12 amplitudes, of re alone unless the
// case says im; the 23-term brick runs on one 2^16-amplitude shard of a
// 24-qubit state.
func BenchmarkSignBatch(b *testing.B) {
	cases := []struct {
		name  string
		k     int
		base  int
		im    bool
		terms []signTerm
	}{
		{"cz-low", tileBits, 0, false, []signTerm{cz(3, 4)}},
		{"cz-high", tileBits, 0, false, []signTerm{cz(9, 10)}},
		{"cz-low-im", tileBits, 0, true, []signTerm{cz(3, 4)}},
		{"3terms-bits3-8", tileBits, 0, false, []signTerm{cz(3, 4), cz(5, 6), cz(7, 8)}},
		{"3terms-bits0-5", tileBits, 0, false, []signTerm{cz(0, 1), cz(2, 3), cz(4, 5)}},
		{"4terms-bits6-11", tileBits, 0, false, []signTerm{cz(6, 7), cz(8, 9), cz(10, 11), cz(7, 8)}},
		{"brick11", tileBits, 0, false, brick(12)},
		{"brick11-im", tileBits, 0, true, brick(12)},
		{"brick23-shard", DefaultShardBits, 5 << DefaultShardBits, false, brick(24)},
	}
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(1))
		re := fuzzValues(rng, 1<<tc.k)
		var im []float64
		if tc.im {
			im = fuzzValues(rng, 1<<tc.k)
		}
		for _, path := range []struct {
			name string
			run  func(re, im []float64, terms []signTerm, base int)
		}{{"loops", frozenApplySignTermsChunk}, {"sweep", applySignTermsChunk}} {
			b.Run(fmt.Sprintf("%s/%dterms/%s", tc.name, len(tc.terms), path.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					path.run(re, im, tc.terms, tc.base)
				}
			})
		}
	}
}

// BenchmarkAliasBuild times one alias-table build over the measurement
// distribution of the 12-qubit VQE ansatz, the table the dense engine
// builds on every Sample of vqe12-gd.
func BenchmarkAliasBuild(b *testing.B) {
	s := NewState(12)
	if err := s.Run(shiftIteration(12)[0]); err != nil {
		b.Fatal(err)
	}
	p := s.Probabilities()
	var total float64
	for _, v := range p {
		total += v
	}
	w := make([]float64, len(p))
	sc := newAliasScratch()
	var t aliasTable
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(w, p)
		t.build(w, total, sc)
	}
}

// BenchmarkApply1QRealStride times the real pair kernel on re alone, a
// real-prefix RY, over a 12-qubit array at qubits 0–4, 8 and 11, each
// two ways: through the dispatch, which runs the vector kernel where
// the CPU has one (DESIGN.md §11.5), and through the Go loops called
// directly, the block loops at qubits 0–2 and the run decode above.
func BenchmarkApply1QRealStride(b *testing.B) {
	re := make([]float64, 1<<12)
	for i := range re {
		re[i] = float64(i%7) / 8
	}
	sn, c := math.Sincos(0.3)
	u := [4]float64{c, -sn, sn, c}
	for _, q := range []int{0, 1, 2, 3, 4, 8, 11} {
		for _, path := range []struct {
			name  string
			apply func(re, im []float64, stride int, u [4]float64, lo, hi int)
		}{{"dispatch", apply1QRealPairs}, {"go", apply1QRealPairsGo}} {
			b.Run(fmt.Sprintf("q%d/%s", q, path.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					path.apply(re, nil, 1<<q, u, 0, len(re)/2)
				}
			})
		}
	}
}
