package route_test

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"qtenon/internal/circuit"
	"qtenon/internal/rng"
	"qtenon/internal/route"
	"qtenon/internal/vqa"
)

// TestSampleWordsFrozen pins the outcome words each engine draws through
// route.NewSimulator at a fixed seed, and where it leaves the stream, so
// that a change to a sampler or to the random stream names the engine
// whose words changed instead of surfacing as a golden cost diff. Each
// digest is the FNV-64a of the words followed by the source's next
// Int63. The digests were recorded with math/rand's seeded stream, and
// an rng.Stream of the same seed must give them too.
func TestSampleWordsFrozen(t *testing.T) {
	spread := func(w *vqa.Workload) *circuit.Circuit {
		p := make([]float64, w.NumParams())
		for i := range p {
			p[i] = 0.4 + float64(0.37*float64(i%11))
		}
		return w.Circuit.Bind(p)
	}
	vqe := func(n int) *circuit.Circuit {
		w, err := vqa.New(vqa.VQE, n)
		if err != nil {
			t.Fatal(err)
		}
		return spread(w)
	}
	graph, err := vqa.NewStabilizer(20)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		method route.Method
		c      *circuit.Circuit
		shots  int
		seed   int64
		digest uint64
	}{
		{"dense12", route.Dense, vqe(12), 500, 1, 0x203933f9ae40d037},
		{"sharded17", route.Sharded, vqe(17), 9000, 2, 0xed77ec7bc2741288}, // 2 shards, 3 blocks
		{"product64", route.Product, vqe(64), 500, 3, 0x810495e1119a5e96},
		{"product70", route.Product, vqe(70), 300, 4, 0x67a89c236e819d9a},
		{"clifford20", route.Clifford, graph.Circuit, 200, 5, 0x6f419af647c2d341},
	}
	sources := []struct {
		name string
		new  func(seed int64) rng.Source
	}{
		{"math/rand", func(seed int64) rng.Source { return rand.New(rand.NewSource(seed)) }},
		{"rng.Stream", func(seed int64) rng.Source { return rng.NewStream(seed) }},
	}
	for _, tc := range cases {
		sim, err := route.NewSimulator(tc.method, tc.c.NQubits)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(tc.c); err != nil {
			t.Fatal(err)
		}
		for _, source := range sources {
			src := source.new(tc.seed)
			h := fnv.New64a()
			var word [8]byte
			for _, v := range sim.Sample(tc.shots, src) {
				binary.LittleEndian.PutUint64(word[:], v)
				h.Write(word[:])
			}
			binary.LittleEndian.PutUint64(word[:], uint64(src.Int63()))
			h.Write(word[:])
			if got := h.Sum64(); got != tc.digest {
				t.Errorf("%s from %s: sampled words digest = %#x, want %#x", tc.name, source.name, got, tc.digest)
			}
		}
	}
}
