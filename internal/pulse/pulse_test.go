package pulse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"qtenon/internal/circuit"
)

func TestGeometryConstants(t *testing.T) {
	if WordsPerEntry != 10 {
		t.Errorf("WordsPerEntry = %d, want 10 (ten parallel 64-bit buffers)", WordsPerEntry)
	}
	if SamplesPerEntry != 20 {
		t.Errorf("SamplesPerEntry = %d, want 20", SamplesPerEntry)
	}
}

func TestSynthesizeShape(t *testing.T) {
	wf := Synthesize(circuit.RX, math.Pi, 20, DefaultParams())
	if len(wf) != 40 { // 20 ns at 2 GS/s
		t.Fatalf("len = %d, want 40", len(wf))
	}
	// Envelope peaks near the center and decays toward the edges.
	center := len(wf) / 2
	if abs16(wf[center].I) <= abs16(wf[0].I) {
		t.Errorf("envelope not peaked: center %d edge %d", wf[center].I, wf[0].I)
	}
	if abs16(wf[0].I) > abs16(wf[center].I)/2 {
		t.Errorf("edges not attenuated: edge %d center %d", wf[0].I, wf[center].I)
	}
}

func abs16(v int16) int16 {
	if v < 0 {
		return -v
	}
	return v
}

func TestSynthesizeAngleScaling(t *testing.T) {
	p := DefaultParams()
	half := Synthesize(circuit.RX, math.Pi/2, 20, p)
	full := Synthesize(circuit.RX, math.Pi, 20, p)
	c := len(half) / 2
	ratio := float64(full[c].I) / float64(half[c].I)
	if math.Abs(ratio-2) > 0.01 {
		t.Errorf("amplitude ratio π/(π/2) = %v, want ≈2", ratio)
	}
}

func TestSynthesizeAxisSelection(t *testing.T) {
	p := DefaultParams()
	p.DRAGLambda = 0 // isolate the carrier axis
	rx := Synthesize(circuit.RX, math.Pi, 20, p)
	ry := Synthesize(circuit.RY, math.Pi, 20, p)
	c := len(rx) / 2
	if rx[c].Q != 0 {
		t.Errorf("RX has Q component %d at peak", rx[c].Q)
	}
	if ry[c].I != 0 {
		t.Errorf("RY has I component %d at peak", ry[c].I)
	}
	if ry[c].Q == 0 {
		t.Error("RY missing Q drive")
	}
}

func TestAngleNormalizationEquivalence(t *testing.T) {
	p := DefaultParams()
	a := Synthesize(circuit.RX, 0.5, 20, p)
	b := Synthesize(circuit.RX, 0.5+2*math.Pi, 20, p)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs for equivalent angles: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestDeterminism(t *testing.T) {
	p := DefaultParams()
	a := Synthesize(circuit.RY, 1.2345, 20, p)
	b := Synthesize(circuit.RY, 1.2345, 20, p)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("synthesis not deterministic")
		}
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(100)
		wf := make(Waveform, n)
		for i := range wf {
			wf[i] = IQ{I: int16(rng.Int()), Q: int16(rng.Int())}
		}
		entries := PackEntries(wf)
		wantEntries := (n + SamplesPerEntry - 1) / SamplesPerEntry
		if len(entries) != wantEntries {
			t.Fatalf("n=%d: %d entries, want %d", n, len(entries), wantEntries)
		}
		back := UnpackEntries(entries, n)
		for i := range wf {
			if wf[i] != back[i] {
				t.Fatalf("n=%d sample %d: %v != %v", n, i, wf[i], back[i])
			}
		}
	}
}

// Property: pack/unpack round-trips arbitrary int16 IQ data.
func TestPackRoundTripProperty(t *testing.T) {
	f := func(is, qs []int16) bool {
		n := min(len(is), len(qs))
		if n == 0 {
			return true
		}
		wf := make(Waveform, n)
		for i := 0; i < n; i++ {
			wf[i] = IQ{I: is[i], Q: qs[i]}
		}
		back := UnpackEntries(PackEntries(wf), n)
		for i := range wf {
			if wf[i] != back[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPGUGenerate(t *testing.T) {
	pgu := NewPGU()
	if pgu.LatencyCycle != 1000 {
		t.Errorf("PGU latency = %d cycles, want 1000 (paper §7.1)", pgu.LatencyCycle)
	}
	entries := pgu.Generate(circuit.RX, math.Pi/4, 20)
	if len(entries) != 2 { // 40 samples → 2 entries of 20
		t.Errorf("20ns pulse entries = %d, want 2", len(entries))
	}
	// Identical inputs give identical packed pulses — the property the SLT
	// relies on to skip regeneration.
	again := pgu.Generate(circuit.RX, math.Pi/4, 20)
	for i := range entries {
		if entries[i] != again[i] {
			t.Fatal("PGU not reproducible for identical inputs")
		}
	}
}

func TestZeroDurationClamps(t *testing.T) {
	wf := Synthesize(circuit.RZ, 1, 0, DefaultParams())
	if len(wf) != 1 {
		t.Errorf("zero-duration waveform len = %d, want clamped 1", len(wf))
	}
}
