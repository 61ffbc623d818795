package quantum

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"qtenon/internal/circuit"
	"qtenon/internal/qsim"
	"qtenon/internal/qsim/product"
	"qtenon/internal/route"
	"qtenon/internal/sim"
)

func TestBackendSelection(t *testing.T) {
	nonClifford := circuit.NewBuilder(2).H(0).RY(1, 0.3).MeasureAll().MustBuild()
	clifford := circuit.NewBuilder(2).H(0).CX(0, 1).MeasureAll().MustBuild()

	small, err := NewChip(8, 1, Noise{})
	if err != nil {
		t.Fatal(err)
	}
	if got := small.Method(); got != route.Auto {
		t.Errorf("fresh chip Method = %v, want auto", got)
	}
	if _, err := small.Execute(nonClifford, 10); err != nil {
		t.Fatal(err)
	}
	if got := small.Method(); got != route.Dense {
		t.Errorf("8-qubit chip routed %v for a generic circuit, want dense", got)
	}
	if _, err := small.Execute(clifford, 10); err != nil {
		t.Fatal(err)
	}
	if got := small.Method(); got != route.Clifford {
		t.Errorf("8-qubit chip routed %v for a Clifford circuit, want clifford", got)
	}

	big, err := NewChip(64, 1, Noise{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := big.Execute(nonClifford, 10); err != nil {
		t.Fatal(err)
	}
	if got := big.Method(); got != route.Product {
		t.Errorf("64-qubit chip routed %v for a generic circuit, want product", got)
	}
	if _, err := NewChip(0, 1, Noise{}); err == nil {
		t.Error("NewChip accepted 0 qubits")
	}
}

func TestForceMethod(t *testing.T) {
	clifford := circuit.NewBuilder(2).H(0).CX(0, 1).MeasureAll().MustBuild()
	chip, _ := NewChip(2, 1, Noise{})
	chip.ForceMethod(route.Dense)
	if _, err := chip.Execute(clifford, 10); err != nil {
		t.Fatal(err)
	}
	if got := chip.Method(); got != route.Dense {
		t.Errorf("forced dense, routed %v", got)
	}
	nonClifford := circuit.NewBuilder(2).RY(0, 0.3).MeasureAll().MustBuild()
	chip.ForceMethod(route.Clifford)
	if _, err := chip.Execute(nonClifford, 10); err == nil {
		t.Error("clifford forced on a non-Clifford circuit did not fail")
	}
	chip.ForceMethod(route.Auto)
	if _, err := chip.Execute(nonClifford, 10); err != nil {
		t.Fatal(err)
	}
}

func TestExecuteValidation(t *testing.T) {
	chip, _ := NewChip(2, 1, Noise{})
	tooWide := circuit.NewBuilder(3).H(0).MustBuild()
	if _, err := chip.Execute(tooWide, 10); err == nil {
		t.Error("accepted circuit wider than chip")
	}
	unbound := circuit.NewBuilder(2).RXP(0, 0).MustBuild()
	if _, err := chip.Execute(unbound, 10); err == nil {
		t.Error("accepted unbound circuit")
	}
	ok := circuit.NewBuilder(2).H(0).MustBuild()
	if _, err := chip.Execute(ok, 0); err == nil {
		t.Error("accepted zero shots")
	}
	// No engine's Run collapses the state at a Measure gate, so qubit 0
	// would read 1 on no shot here instead of on about half of them.
	mid := circuit.NewBuilder(2)
	mid.H(0).Measure(0).H(0).Measure(0)
	if _, err := chip.Execute(mid.MustBuild(), 1000); err == nil {
		t.Error("accepted a mid-circuit measurement")
	}
}

func TestExecuteTiming(t *testing.T) {
	chip, _ := NewChip(2, 1, Noise{})
	c := circuit.NewBuilder(2).H(0).CX(0, 1).MeasureAll().MustBuild()
	ex, err := chip.Execute(c, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Critical path: H (20) + CX (40) + measure (600) = 660 ns.
	if ex.ShotTime != 660*sim.Nanosecond {
		t.Errorf("ShotTime = %v, want 660ns", ex.ShotTime)
	}
	if len(ex.Outcomes) != 100 {
		t.Errorf("outcomes = %d", len(ex.Outcomes))
	}
}

func TestExactBellCorrelations(t *testing.T) {
	chip, _ := NewChip(2, 7, Noise{})
	c := circuit.NewBuilder(2).H(0).CX(0, 1).MeasureAll().MustBuild()
	ex, err := chip.Execute(c, 4000)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range ex.Outcomes {
		if o == 1 || o == 2 {
			t.Fatalf("Bell produced uncorrelated outcome %b", o)
		}
	}
}

// The surrogate is EXACT for circuits without two-qubit gates: validate
// its per-qubit populations against the statevector simulator.
func TestSurrogateMatchesExactFor1QCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		b := circuit.NewBuilder(4)
		for i := 0; i < 15; i++ {
			q := rng.Intn(4)
			switch rng.Intn(4) {
			case 0:
				b.RX(q, rng.NormFloat64())
			case 1:
				b.RY(q, rng.NormFloat64())
			case 2:
				b.RZ(q, rng.NormFloat64())
			case 3:
				b.H(q)
			}
		}
		c := b.MustBuild()
		st, err := qsim.Run(c)
		if err != nil {
			t.Fatal(err)
		}
		ps := product.New(4)
		for _, g := range c.Gates {
			ps.Apply(g)
		}
		for q := 0; q < 4; q++ {
			exact := (1 - st.ExpectationZ(q)) / 2
			if math.Abs(ps.P1(q)-exact) > 1e-9 {
				t.Fatalf("trial %d qubit %d: surrogate P1=%v exact=%v", trial, q, ps.P1(q), exact)
			}
		}
	}
}

func TestSurrogateParameterSensitivity(t *testing.T) {
	// The QAOA pattern RZZ→RX must respond to the RZZ angle in the
	// surrogate (mean-field coupling), otherwise large-scale optimizer
	// sweeps would see a flat landscape.
	cost := func(gamma float64) float64 {
		ps := product.New(2)
		ps.Apply(circuit.Gate{Kind: circuit.H, Qubit: 0, Param: circuit.NoParam})
		ps.Apply(circuit.Gate{Kind: circuit.RY, Qubit: 1, Theta: 0.7, Param: circuit.NoParam})
		ps.Apply(circuit.Gate{Kind: circuit.RZZ, Qubit: 0, Qubit2: 1, Theta: gamma, Param: circuit.NoParam})
		ps.Apply(circuit.Gate{Kind: circuit.RX, Qubit: 0, Theta: 0.9, Param: circuit.NoParam})
		ps.Apply(circuit.Gate{Kind: circuit.RX, Qubit: 1, Theta: 0.9, Param: circuit.NoParam})
		return ps.ZExp(0) + ps.ZExp(1)
	}
	if math.Abs(cost(0.3)-cost(1.5)) < 1e-6 {
		t.Error("surrogate insensitive to RZZ angle")
	}
}

func TestSurrogateCXMixesTarget(t *testing.T) {
	ps := product.New(2)
	ps.Apply(circuit.Gate{Kind: circuit.X, Qubit: 0, Param: circuit.NoParam}) // control = |1⟩
	ps.Apply(circuit.Gate{Kind: circuit.CX, Qubit: 0, Qubit2: 1, Param: circuit.NoParam})
	if math.Abs(ps.P1(1)-1) > 1e-9 {
		t.Errorf("CX with control=1: target P1 = %v, want 1", ps.P1(1))
	}
	ps2 := product.New(2)
	ps2.Apply(circuit.Gate{Kind: circuit.CX, Qubit: 0, Qubit2: 1, Param: circuit.NoParam})
	if ps2.P1(1) > 1e-9 {
		t.Errorf("CX with control=0 flipped target: %v", ps2.P1(1))
	}
}

func TestSurrogateSampleDistribution(t *testing.T) {
	ps := product.New(1)
	ps.Apply(circuit.Gate{Kind: circuit.RY, Qubit: 0, Theta: math.Pi / 3, Param: circuit.NoParam})
	// P1 = sin²(π/6) = 0.25.
	rng := rand.New(rand.NewSource(5))
	samples := ps.Sample(40000, rng)
	ones := 0
	for _, s := range samples {
		ones += int(s & 1)
	}
	frac := float64(ones) / 40000
	if math.Abs(frac-0.25) > 0.01 {
		t.Errorf("sampled P1 = %v, want 0.25", frac)
	}
}

func TestLargeChipExecutes(t *testing.T) {
	chip, _ := NewChip(64, 9, Noise{})
	b := circuit.NewBuilder(64)
	for q := 0; q < 64; q++ {
		b.RY(q, 0.1*float64(q))
	}
	for q := 0; q+1 < 64; q += 2 {
		b.CZ(q, q+1)
	}
	b.MeasureAll()
	c := b.MustBuild()
	ex, err := chip.Execute(c, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Outcomes) != 50 {
		t.Fatalf("outcomes = %d", len(ex.Outcomes))
	}
	if ex.ShotTime <= 600*sim.Nanosecond {
		t.Errorf("ShotTime = %v, must exceed the measurement window", ex.ShotTime)
	}
}

func TestADIDefaults(t *testing.T) {
	adi := DefaultADI()
	if adi.LatencyIn != 100*sim.Nanosecond || adi.LatencyOut != 100*sim.Nanosecond {
		t.Errorf("ADI = %+v, want 100ns each direction", adi)
	}
	if adi.RoundTrip() != 200*sim.Nanosecond {
		t.Errorf("RoundTrip = %v", adi.RoundTrip())
	}
}

func TestChipDeterminism(t *testing.T) {
	run := func() []uint64 {
		chip, _ := NewChip(4, 42, Noise{})
		c := circuit.NewBuilder(4).H(0).CX(0, 1).RY(2, 0.5).MeasureAll().MustBuild()
		ex, err := chip.Execute(c, 20)
		if err != nil {
			t.Fatal(err)
		}
		return ex.Outcomes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("chip not deterministic for fixed seed")
		}
	}
}

// Execution.Outcomes belongs to the caller: a later Execute on the same
// chip must not write into a slice an earlier one returned, whichever
// engine ran it.
func TestExecuteOutcomesOwnedByCaller(t *testing.T) {
	generic := circuit.NewBuilder(4).H(0).H(1).RY(2, 0.7).RX(3, 1.1).CX(0, 2).MeasureAll().MustBuild()
	clifford := circuit.NewBuilder(4).H(0).H(1).H(2).H(3).CX(0, 1).S(2).MeasureAll().MustBuild()
	for _, tc := range []struct {
		method route.Method
		c      *circuit.Circuit
	}{
		{route.Dense, generic},
		{route.Sharded, generic},
		{route.Product, generic},
		{route.Clifford, clifford},
	} {
		t.Run(tc.method.String(), func(t *testing.T) {
			chip, err := NewChip(4, 7, Noise{})
			if err != nil {
				t.Fatal(err)
			}
			chip.ForceMethod(tc.method)
			first, err := chip.Execute(tc.c, 64)
			if err != nil {
				t.Fatal(err)
			}
			kept := slices.Clone(first.Outcomes)
			second, err := chip.Execute(tc.c, 64)
			if err != nil {
				t.Fatal(err)
			}
			if got := chip.Method(); got != tc.method {
				t.Fatalf("ran %v, want %v", got, tc.method)
			}
			// Equal draws would hide an overwrite.
			if slices.Equal(second.Outcomes, kept) {
				t.Fatal("both executions drew the same outcomes")
			}
			if !slices.Equal(first.Outcomes, kept) {
				t.Error("the second Execute changed the first Execute's outcomes")
			}
		})
	}
}
