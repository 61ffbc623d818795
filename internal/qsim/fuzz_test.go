package qsim

import (
	"math/cmplx"
	"math/rand"
	"testing"

	"qtenon/internal/par"
)

// FuzzFusedSoAMatchesReference drives the full SoA pipeline — fusion,
// cache-blocked tiling, sign/phase term splitting, parallel sweeps —
// against the naive serial complex128 reference on random circuits, and
// checks that fixed-seed sampling is identical across worker counts. The
// seed-derived generator keeps every input valid; the fuzzer explores
// circuit shapes through the (seed, qubits, gates) triple.
func FuzzFusedSoAMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(40))
	f.Add(int64(2), uint8(2), uint8(5))
	f.Add(int64(3), uint8(13), uint8(60))  // beyond one 2^12-amp tile
	f.Add(int64(4), uint8(14), uint8(120)) // multiple par chunks
	f.Add(int64(5), uint8(9), uint8(1))
	f.Add(int64(6), uint8(11), uint8(80))
	f.Fuzz(func(t *testing.T, seed int64, nq, gates uint8) {
		n := 2 + int(nq)%13      // 2..14 qubits
		ng := 1 + int(gates)%120 // 1..120 gates
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(rng, n, ng)

		par.SetWorkers(4)
		defer par.SetWorkers(0)
		got, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}

		ref := make([]complex128, 1<<n)
		ref[0] = 1
		for _, g := range c.Gates {
			refApply(ref, g)
		}
		for i, a := range got.Amplitudes() {
			if cmplx.Abs(a-ref[i]) > 1e-12 {
				t.Fatalf("amp[%d] = %v, reference %v (seed=%d n=%d gates=%d)", i, a, ref[i], seed, n, ng)
			}
		}

		// Fixed-seed sampling must not depend on the worker count.
		want := got.Clone().Sample(256, rand.New(rand.NewSource(seed)))
		par.SetWorkers(1)
		for i, v := range got.Clone().Sample(256, rand.New(rand.NewSource(seed))) {
			if v != want[i] {
				t.Fatalf("sample %d = %d at workers=1, want %d", i, v, want[i])
			}
		}
	})
}
