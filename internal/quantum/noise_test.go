package quantum

import (
	"math"
	"testing"

	"qtenon/internal/circuit"
)

func TestNoiseValidate(t *testing.T) {
	if err := (Noise{}).Validate(); err != nil {
		t.Errorf("zero noise invalid: %v", err)
	}
	if err := TypicalNISQ().Validate(); err != nil {
		t.Errorf("typical NISQ invalid: %v", err)
	}
	bad := []Noise{{Depolar1Q: -0.1}, {Depolar2Q: 1.5}, {Readout: 2}}
	for _, n := range bad {
		if err := n.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", n)
		}
	}
	if (Noise{}).Enabled() {
		t.Error("zero noise reports enabled")
	}
	if !TypicalNISQ().Enabled() {
		t.Error("typical NISQ reports disabled")
	}
	if _, err := NewChip(2, 1, Noise{Readout: -1}); err == nil {
		t.Error("NewChip accepted invalid noise")
	}
}

func TestReadoutErrorRate(t *testing.T) {
	// |0⟩ measured under 10% readout error flips ≈10% of shots.
	noisy, err := NewChip(1, 3, Noise{Readout: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.NewBuilder(1).Measure(0).MustBuild()
	ex, err := noisy.Execute(c, 20000)
	if err != nil {
		t.Fatal(err)
	}
	flips := 0
	for _, o := range ex.Outcomes {
		flips += int(o & 1)
	}
	rate := float64(flips) / 20000
	if math.Abs(rate-0.1) > 0.01 {
		t.Errorf("readout flip rate = %v, want ≈0.1", rate)
	}
}

func TestDepolarizingDegradesBell(t *testing.T) {
	// Heavy two-qubit noise must break perfect Bell correlations;
	// noiseless execution keeps them exact.
	c := circuit.NewBuilder(2).H(0).CX(0, 1).MeasureAll().MustBuild()
	mismatch := func(noise Noise) float64 {
		chip, err := NewChip(2, 11, noise)
		if err != nil {
			t.Fatal(err)
		}
		bad := 0
		const trials, shots = 200, 20
		for i := 0; i < trials; i++ {
			ex, err := chip.Execute(c, shots)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range ex.Outcomes {
				if o == 1 || o == 2 {
					bad++
				}
			}
		}
		return float64(bad) / float64(trials*shots)
	}
	if m := mismatch(Noise{}); m != 0 {
		t.Errorf("noiseless Bell mismatch = %v", m)
	}
	if m := mismatch(Noise{Depolar2Q: 0.5}); m < 0.05 {
		t.Errorf("heavy depolarizing mismatch = %v, want substantial", m)
	}
}

func TestNoiseKeepsShotTime(t *testing.T) {
	// Injected error operators are not scheduled pulses: timing must
	// match the clean circuit.
	c := circuit.NewBuilder(2).H(0).CX(0, 1).MeasureAll().MustBuild()
	clean, _ := NewChip(2, 5, Noise{})
	noisy, _ := NewChip(2, 5, Noise{Depolar1Q: 0.5, Depolar2Q: 0.5})
	a, _ := clean.Execute(c, 10)
	b, err := noisy.Execute(c, 10)
	if err != nil {
		t.Fatal(err)
	}
	if a.ShotTime != b.ShotTime {
		t.Errorf("noisy ShotTime %v != clean %v", b.ShotTime, a.ShotTime)
	}
}

// The noisy chip's outcome words, pinned: the trajectory draws, the
// ideal sampling and the readout flips happen in a fixed order on two
// seeded streams, so any change to that order changes these words.
func TestNoisyOutcomeStream(t *testing.T) {
	chip, err := NewChip(2, 13, TypicalNISQ())
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.NewBuilder(2).H(0).CX(0, 1).MeasureAll().MustBuild()
	// One digit per shot; 1 and 2 are errors on a Bell pair.
	want := []string{
		"00030333300033130203333330310300",
		"03000330300333030030000333030330",
		"00033033333330003000003330130133",
		"30333333300033330302333230003030",
	}
	for b, w := range want {
		ex, err := chip.Execute(c, len(w))
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(ex.Outcomes))
		for i, o := range ex.Outcomes {
			got[i] = '0' + byte(o)
		}
		if string(got) != w {
			t.Errorf("batch %d outcomes = %s, want %s", b, got, w)
		}
	}
}

func TestTypicalNISQStillUseful(t *testing.T) {
	// At realistic error rates a Bell pair keeps most of its correlation.
	chip, err := NewChip(2, 13, TypicalNISQ())
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.NewBuilder(2).H(0).CX(0, 1).MeasureAll().MustBuild()
	good := 0
	const trials, shots = 100, 40
	for i := 0; i < trials; i++ {
		ex, err := chip.Execute(c, shots)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range ex.Outcomes {
			if o == 0 || o == 3 {
				good++
			}
		}
	}
	frac := float64(good) / float64(trials*shots)
	if frac < 0.9 {
		t.Errorf("correlated fraction = %v under typical NISQ, want > 0.9", frac)
	}
}
