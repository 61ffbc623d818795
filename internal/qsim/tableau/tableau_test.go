package tableau

import (
	"math"
	"math/rand"
	"testing"

	"qtenon/internal/circuit"
	"qtenon/internal/qsim"
)

func mustNew(t *testing.T, n int) *Tableau {
	t.Helper()
	tb, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("accepted 0 qubits")
	}
	if _, err := New(MaxQubits + 1); err == nil {
		t.Error("accepted width past MaxQubits")
	}
}

func TestZeroStateProbabilities(t *testing.T) {
	tb := mustNew(t, 3)
	p := tb.Probabilities()
	if p[0] != 1 {
		t.Fatalf("P(000) = %v, want exactly 1", p[0])
	}
	for i := 1; i < len(p); i++ {
		if p[i] != 0 {
			t.Fatalf("P(%b) = %v, want 0", i, p[i])
		}
	}
}

func TestBellState(t *testing.T) {
	tb := mustNew(t, 2)
	tb.H(0)
	tb.CX(0, 1)
	p := tb.Probabilities()
	// Dyadic exactness: both outcomes are exactly 2^-1.
	if p[0] != 0.5 || p[3] != 0.5 || p[1] != 0 || p[2] != 0 {
		t.Fatalf("Bell probabilities = %v, want [0.5 0 0 0.5] exactly", p)
	}
	rng := rand.New(rand.NewSource(7))
	for _, o := range tb.Sample(2000, rng) {
		if o == 1 || o == 2 {
			t.Fatalf("Bell sampled uncorrelated outcome %b", o)
		}
	}
}

func TestGHZCorrelations(t *testing.T) {
	const n = 10
	tb := mustNew(t, n)
	tb.H(0)
	for q := 1; q < n; q++ {
		tb.CX(0, q)
	}
	rng := rand.New(rand.NewSource(3))
	all := uint64(1<<n) - 1
	zeros, ones := 0, 0
	for _, o := range tb.Sample(4000, rng) {
		switch o {
		case 0:
			zeros++
		case all:
			ones++
		default:
			t.Fatalf("GHZ sampled %b", o)
		}
	}
	if zeros == 0 || ones == 0 {
		t.Fatalf("GHZ never sampled one branch (zeros=%d ones=%d)", zeros, ones)
	}
}

func TestDeterministicMeasurementConsumesNoRandomness(t *testing.T) {
	tb := mustNew(t, 2)
	tb.X(0)
	rng := rand.New(rand.NewSource(1))
	before := rng.Int63()
	rng = rand.New(rand.NewSource(1))
	if got := tb.MeasureQubit(0, rng); got != 1 {
		t.Fatalf("measured %d after X, want 1", got)
	}
	if got := tb.MeasureQubit(1, rng); got != 0 {
		t.Fatalf("measured %d on |0⟩, want 0", got)
	}
	if rng.Int63() != before {
		t.Fatal("deterministic measurement consumed RNG draws")
	}
}

func TestRandomMeasurementCollapses(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 32; trial++ {
		tb := mustNew(t, 1)
		tb.H(0)
		first := tb.MeasureQubit(0, rng)
		for rep := 0; rep < 4; rep++ {
			if got := tb.MeasureQubit(0, rng); got != first {
				t.Fatalf("repeated measurement flipped %d→%d", first, got)
			}
		}
	}
}

func TestZExpectationMask(t *testing.T) {
	// Bell state: ⟨Z0⟩ = ⟨Z1⟩ = 0 but ⟨Z0Z1⟩ = +1 exactly.
	tb := mustNew(t, 2)
	tb.H(0)
	tb.CX(0, 1)
	if got := tb.ZExpectationMask(0b01); got != 0 {
		t.Errorf("⟨Z0⟩ = %v, want 0", got)
	}
	if got := tb.ZExpectationMask(0b11); got != 1 {
		t.Errorf("⟨Z0Z1⟩ = %v, want exactly +1", got)
	}
	tb.X(0) // |Ψ+⟩-like: anticorrelated
	if got := tb.ZExpectationMask(0b11); got != -1 {
		t.Errorf("⟨Z0Z1⟩ after X = %v, want exactly -1", got)
	}
	if got := tb.ZExpectationMask(0); got != 1 {
		t.Errorf("⟨I⟩ = %v, want 1", got)
	}
}

func TestCliffordAngle(t *testing.T) {
	cases := []struct {
		theta float64
		k     int
		ok    bool
	}{
		{0, 0, true},
		{math.Pi / 2, 1, true},
		{math.Pi, 2, true},
		{3 * math.Pi / 2, 3, true},
		{2 * math.Pi, 0, true},
		{-math.Pi / 2, 3, true},
		{math.Pi/2 + 1e-12, 1, true},
		{math.Pi / 4, 0, false},
		{0.3, 0, false},
	}
	for _, c := range cases {
		k, ok := CliffordAngle(c.theta)
		if ok != c.ok || (ok && k != c.k) {
			t.Errorf("CliffordAngle(%v) = (%d,%v), want (%d,%v)", c.theta, k, ok, c.k, c.ok)
		}
	}
}

func TestIsClifford(t *testing.T) {
	g := func(k circuit.Kind, theta float64, param int) circuit.Gate {
		return circuit.Gate{Kind: k, Theta: theta, Param: param}
	}
	if !IsClifford(g(circuit.H, 0, circuit.NoParam)) || !IsClifford(g(circuit.CX, 0, circuit.NoParam)) {
		t.Error("H/CX not Clifford")
	}
	if IsClifford(g(circuit.T, 0, circuit.NoParam)) {
		t.Error("T claimed Clifford")
	}
	if !IsClifford(g(circuit.RZ, math.Pi, circuit.NoParam)) {
		t.Error("RZ(π) not Clifford")
	}
	if IsClifford(g(circuit.RZ, math.Pi/4, circuit.NoParam)) {
		t.Error("RZ(π/4) claimed Clifford")
	}
	if IsClifford(g(circuit.RZ, math.Pi, 0)) {
		t.Error("unbound RZ claimed Clifford")
	}
}

// cliffordKinds enumerates the gates the rotation-snap fuzz and
// equivalence tests draw from.
func randomCliffordCircuit(n, gates int, rng *rand.Rand) *circuit.Circuit {
	c := &circuit.Circuit{NQubits: n}
	angles := []float64{0, math.Pi / 2, math.Pi, 3 * math.Pi / 2, -math.Pi / 2, 2 * math.Pi}
	for len(c.Gates) < gates {
		q := rng.Intn(n)
		q2 := rng.Intn(n)
		for q2 == q {
			q2 = rng.Intn(n)
		}
		var g circuit.Gate
		switch rng.Intn(11) {
		case 0:
			g = circuit.Gate{Kind: circuit.H, Qubit: q, Param: circuit.NoParam}
		case 1:
			g = circuit.Gate{Kind: circuit.S, Qubit: q, Param: circuit.NoParam}
		case 2:
			g = circuit.Gate{Kind: circuit.X, Qubit: q, Param: circuit.NoParam}
		case 3:
			g = circuit.Gate{Kind: circuit.Y, Qubit: q, Param: circuit.NoParam}
		case 4:
			g = circuit.Gate{Kind: circuit.Z, Qubit: q, Param: circuit.NoParam}
		case 5:
			g = circuit.Gate{Kind: circuit.CX, Qubit: q, Qubit2: q2, Param: circuit.NoParam}
		case 6:
			g = circuit.Gate{Kind: circuit.CZ, Qubit: q, Qubit2: q2, Param: circuit.NoParam}
		case 7:
			g = circuit.Gate{Kind: circuit.RX, Qubit: q, Theta: angles[rng.Intn(len(angles))], Param: circuit.NoParam}
		case 8:
			g = circuit.Gate{Kind: circuit.RY, Qubit: q, Theta: angles[rng.Intn(len(angles))], Param: circuit.NoParam}
		case 9:
			g = circuit.Gate{Kind: circuit.RZ, Qubit: q, Theta: angles[rng.Intn(len(angles))], Param: circuit.NoParam}
		case 10:
			g = circuit.Gate{Kind: circuit.RZZ, Qubit: q, Qubit2: q2, Theta: angles[rng.Intn(len(angles))], Param: circuit.NoParam}
		}
		c.Gates = append(c.Gates, g)
	}
	return c
}

// checkAgainstDense asserts the tableau's distribution for c equals the
// dense statevector's, exactly: every tableau probability must be a
// dyadic 2^-s value, the distribution must sum to exactly 1, and the
// dense probability snapped to the 2^-n lattice must equal the tableau
// value bit for bit (dense carries ~1e-16 float noise on the same
// lattice points; snapping is the honest "exact, not 1e-12" comparison).
func checkAgainstDense(t *testing.T, c *circuit.Circuit) {
	t.Helper()
	tb, err := New(c.NQubits)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Run(c); err != nil {
		t.Fatal(err)
	}
	st, err := qsim.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	got := tb.Probabilities()
	want := st.Probabilities()
	lattice := float64(uint64(1) << uint(c.NQubits))
	var sum float64
	for i := range got {
		sum += got[i]
		if got[i] != 0 {
			if f := math.Log2(got[i]); f != math.Trunc(f) {
				t.Fatalf("index %b: tableau probability %v is not dyadic", i, got[i])
			}
		}
		snapped := math.Round(want[i]*lattice) / lattice
		if snapped != got[i] {
			t.Fatalf("index %b: tableau %v, dense %v (snapped %v)", i, got[i], want[i], snapped)
		}
		if math.Abs(want[i]-got[i]) > 1e-12 {
			t.Fatalf("index %b: tableau %v vs dense %v drift", i, got[i], want[i])
		}
	}
	if sum != 1 {
		t.Fatalf("tableau distribution sums to %v, want exactly 1", sum)
	}
}

func TestRotationSnappingMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(5)
		checkAgainstDense(t, randomCliffordCircuit(n, 3+rng.Intn(25), rng))
	}
}

func TestSampleSeedDeterminism(t *testing.T) {
	c := randomCliffordCircuit(6, 30, rand.New(rand.NewSource(9)))
	run := func() []uint64 {
		tb := mustNew(t, 6)
		if err := tb.Run(c); err != nil {
			t.Fatal(err)
		}
		return tb.Sample(50, rand.New(rand.NewSource(123)))
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Sample not deterministic for fixed seed")
		}
	}
}

func TestSampleDoesNotCollapseState(t *testing.T) {
	tb := mustNew(t, 2)
	tb.H(0)
	tb.CX(0, 1)
	rng := rand.New(rand.NewSource(5))
	tb.Sample(100, rng)
	p := tb.Probabilities()
	if p[0] != 0.5 || p[3] != 0.5 {
		t.Fatalf("state collapsed by Sample: %v", p)
	}
}

func TestWideRegister(t *testing.T) {
	// 130 qubits: 3 words per row, exercises multi-word paths. GHZ over
	// the full register; outcome window carries qubits 0..63.
	const n = 130
	tb := mustNew(t, n)
	tb.H(0)
	for q := 1; q < n; q++ {
		tb.CX(q-1, q)
	}
	rng := rand.New(rand.NewSource(2))
	for _, o := range tb.Sample(50, rng) {
		if o != 0 && o != ^uint64(0) {
			t.Fatalf("wide GHZ window outcome %b", o)
		}
	}
	if got := tb.ZExpectationMask(0b11); got != 1 {
		t.Fatalf("wide GHZ ⟨Z0Z1⟩ = %v, want +1", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	tb := mustNew(t, 3)
	tb.H(0)
	cp := tb.Clone()
	cp.X(1)
	rng := rand.New(rand.NewSource(1))
	cp.MeasureQubit(0, rng)
	if got := tb.ZExpectationMask(1 << 1); got != 1 {
		t.Fatalf("clone mutation leaked: ⟨Z1⟩ = %v", got)
	}
}

func TestRunRejectsNonClifford(t *testing.T) {
	tb := mustNew(t, 2)
	c := circuit.NewBuilder(2).H(0).T(0).MustBuild()
	if err := tb.Run(c); err == nil {
		t.Error("Run accepted a T gate")
	}
	unbound := circuit.NewBuilder(2).RXP(0, 0).MustBuild()
	if err := tb.Run(unbound); err == nil {
		t.Error("Run accepted unbound parameters")
	}
	narrow := circuit.NewBuilder(1).H(0).MustBuild()
	if err := tb.Run(narrow); err == nil {
		t.Error("Run accepted width mismatch")
	}
}

func BenchmarkTableau26qGraphState(b *testing.B) {
	const n = 26
	tb, err := New(n)
	if err != nil {
		b.Fatal(err)
	}
	c := &circuit.Circuit{NQubits: n}
	for q := 0; q < n; q++ {
		c.Gates = append(c.Gates, circuit.Gate{Kind: circuit.H, Qubit: q, Param: circuit.NoParam})
	}
	for q := 0; q+1 < n; q++ {
		c.Gates = append(c.Gates, circuit.Gate{Kind: circuit.CZ, Qubit: q, Qubit2: q + 1, Param: circuit.NoParam})
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tb.Run(c); err != nil {
			b.Fatal(err)
		}
		tb.AppendSample(nil, 10, rng)
	}
}
