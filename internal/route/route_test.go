package route

import (
	"math"
	"testing"

	"qtenon/internal/circuit"
	"qtenon/internal/qsim"
	"qtenon/internal/qsim/shard"
)

func sel(t *testing.T, r Router, c *circuit.Circuit) (Method, Analysis) {
	t.Helper()
	m, a, err := r.Select(c)
	if err != nil {
		t.Fatal(err)
	}
	return m, a
}

func TestMethodNames(t *testing.T) {
	for m := Method(0); m < NumMethods; m++ {
		got, err := ParseMethod(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMethod(%q) = (%v,%v)", m.String(), got, err)
		}
	}
	if _, err := ParseMethod("statevector"); err == nil {
		t.Error("ParseMethod accepted an unknown name")
	}
}

func TestCliffordCircuitRoutesTableau(t *testing.T) {
	c := circuit.NewBuilder(30).H(0).CX(0, 1).RZ(2, math.Pi).MeasureAll().MustBuild()
	m, a := sel(t, Default(), c)
	if a.NonClifford != 0 || m != Clifford {
		t.Fatalf("NonClifford %d method %v, want 0/clifford", a.NonClifford, m)
	}
}

func TestGenericSmallRoutesDense(t *testing.T) {
	c := circuit.NewBuilder(8).RY(0, 0.3).MeasureAll().MustBuild()
	if m, _ := sel(t, Default(), c); m != Dense {
		t.Fatalf("routed %v, want dense", m)
	}
}

func TestGenericHugeRoutesProduct(t *testing.T) {
	b := circuit.NewBuilder(64)
	for q := 0; q < 64; q++ {
		b.RY(q, 0.1*float64(q+1))
	}
	c := b.MeasureAll().MustBuild()
	if m, _ := sel(t, Default(), c); m != Product {
		t.Fatalf("routed %v, want product", m)
	}
}

// Satellite: a 0-parameter circuit (nothing bound, nothing to bind)
// routes normally — the Clifford graph state is the canonical case, and
// an empty circuit is the degenerate one (identity ⇒ Clifford).
func TestZeroParameterCircuits(t *testing.T) {
	graph := circuit.NewBuilder(26)
	for q := 0; q < 26; q++ {
		graph.H(q)
	}
	for q := 0; q+1 < 26; q++ {
		graph.CZ(q, q+1)
	}
	c := graph.MeasureAll().MustBuild()
	if c.NumParams != 0 {
		t.Fatal("graph state has parameters")
	}
	m, a := sel(t, Default(), c)
	if m != Clifford {
		t.Fatalf("0-param 26q Clifford circuit routed %v, want clifford", m)
	}
	if a.NonClifford != 0 {
		t.Fatalf("NonClifford = %d", a.NonClifford)
	}

	empty := circuit.New(4)
	if m, _ := sel(t, Default(), empty); m != Clifford {
		t.Fatalf("empty circuit routed %v, want clifford (identity)", m)
	}
}

// Satellite: an unbound parameterized circuit is conservatively
// non-Clifford (angles unknown until Bind).
func TestUnboundParamsAreNonClifford(t *testing.T) {
	c := circuit.NewBuilder(4).H(0).RXP(1, 0).MeasureAll().MustBuild()
	_, a := sel(t, Default(), c)
	if a.NonClifford != 1 {
		t.Fatalf("NonClifford = %d, want 1 (unbound RX)", a.NonClifford)
	}
}

// Satellite: mid-circuit measurement forces the dense fallback even when
// the gates are all Clifford or the register exceeds the dense limit.
func TestMidMeasureForcesDense(t *testing.T) {
	b := circuit.NewBuilder(20)
	b.H(0).Measure(0).X(0) // X after the measure ⇒ mid-circuit
	c := b.MustBuild()
	m, a := sel(t, Default(), c)
	if !a.MidMeasure {
		t.Fatal("mid-circuit measurement not detected")
	}
	if m != Dense {
		t.Fatalf("mid-measure 20q routed %v, want dense (20 > DenseLimit still fits MaxQubits)", m)
	}

	// Terminal measures are NOT mid-circuit.
	term := circuit.NewBuilder(2).H(0).MeasureAll().MustBuild()
	if _, a := sel(t, Default(), term); a.MidMeasure {
		t.Fatal("terminal measure flagged mid-circuit")
	}

	// A two-qubit gate is mid-circuit through its second operand too.
	second := circuit.NewBuilder(2)
	second.Measure(1).CZ(0, 1)
	if _, a := sel(t, Default(), second.MustBuild()); !a.MidMeasure {
		t.Fatal("CZ after measuring its second operand not flagged mid-circuit")
	}
	// A later gate on a different qubit is not.
	other := circuit.NewBuilder(2)
	other.Measure(0).X(1)
	if _, a := sel(t, Default(), other.MustBuild()); a.MidMeasure {
		t.Fatal("gate on an unmeasured qubit flagged mid-circuit")
	}

	// Past the dense window there is no engine that can collapse.
	wide := circuit.NewBuilder(qsim.MaxQubits + 1)
	wide.H(0).Measure(0).X(0)
	if _, _, err := Default().Select(wide.MustBuild()); err == nil {
		t.Error("mid-measure past MaxQubits did not error")
	}
}

// Satellite: one T gate makes an otherwise-Clifford circuit
// non-Clifford, and the method falls back to dense/product.
func TestSingleTGateDemotes(t *testing.T) {
	b := circuit.NewBuilder(8)
	for q := 0; q < 8; q++ {
		b.H(q)
	}
	for q := 0; q+1 < 8; q++ {
		b.CZ(q, q+1)
	}
	b.T(3)
	c := b.MeasureAll().MustBuild()
	m, a := sel(t, Default(), c)
	if a.NonClifford != 1 {
		t.Fatalf("NonClifford = %d, want 1", a.NonClifford)
	}
	if m != Dense {
		t.Fatalf("8q Clifford+T routed %v, want dense", m)
	}

	// Same structure on 64 qubits: too wide for dense ⇒ product.
	wb := circuit.NewBuilder(64)
	for q := 0; q < 64; q++ {
		wb.H(q)
	}
	for q := 0; q+1 < 64; q++ {
		wb.CZ(q, q+1)
	}
	wb.T(3)
	if m, _ := sel(t, Default(), wb.MeasureAll().MustBuild()); m != Product {
		t.Fatalf("64q Clifford+T routed %v, want product", m)
	}
}

func TestSelectWidthUsesChipWidth(t *testing.T) {
	// A narrow generic circuit on a wide chip routes like the chip
	// (pre-router surrogate behavior preserved).
	c := circuit.NewBuilder(4).RY(0, 0.3).MeasureAll().MustBuild()
	r := Router{DenseLimit: 16}
	m, _, err := r.SelectWidth(c, 64)
	if err != nil {
		t.Fatal(err)
	}
	if m != Product {
		t.Fatalf("narrow circuit on 64q chip routed %v, want product", m)
	}
	m, _, err = r.SelectWidth(c, 8)
	if err != nil {
		t.Fatal(err)
	}
	if m != Dense {
		t.Fatalf("narrow circuit on 8q chip routed %v, want dense", m)
	}
}

// Generic circuits past the contiguous dense window stay dense-exact
// on the sharded engine up to shard.MaxQubits, and hand off to the
// product surrogate beyond it.
func TestGenericWideRoutesSharded(t *testing.T) {
	wide := func(n int) *circuit.Circuit {
		b := circuit.NewBuilder(n)
		for q := 0; q < n; q++ {
			b.RY(q, 0.1*float64(q+1))
		}
		return b.MeasureAll().MustBuild()
	}
	for _, n := range []int{DefaultDenseLimit + 1, 24, shard.MaxQubits} {
		if m, _ := sel(t, Default(), wide(n)); m != Sharded {
			t.Fatalf("%dq generic routed %v, want sharded", n, m)
		}
	}
	if m, _ := sel(t, Default(), wide(shard.MaxQubits+1)); m != Product {
		t.Fatalf("%dq generic routed %v, want product", shard.MaxQubits+1, m)
	}
	// The chip-width rule applies to the sharded window too: a narrow
	// generic circuit on a 24-qubit chip routes sharded.
	narrow := circuit.NewBuilder(4).RY(0, 0.3).MeasureAll().MustBuild()
	m, _, err := Default().SelectWidth(narrow, 24)
	if err != nil {
		t.Fatal(err)
	}
	if m != Sharded {
		t.Fatalf("narrow circuit on 24q chip routed %v, want sharded", m)
	}
}

// Forcing the sharded engine obeys its own window and the no-collapse
// restriction; forcing dense past the contiguous window errors even
// though the monolithic statevector could technically allocate (the
// dense-exact path there is the sharded engine).
func TestShardedForceFeasibility(t *testing.T) {
	generic24 := func() *circuit.Circuit {
		b := circuit.NewBuilder(24)
		for q := 0; q < 24; q++ {
			b.RY(q, 0.2)
		}
		return b.MeasureAll().MustBuild()
	}()
	if m, _, err := (Router{Force: Sharded}).Select(generic24); err != nil || m != Sharded {
		t.Errorf("force sharded on 24q = (%v,%v)", m, err)
	}
	if _, _, err := (Router{Force: Dense}).Select(generic24); err == nil {
		t.Error("forced dense on 24 qubits (past the contiguous window) did not error")
	}
	tooWide := circuit.NewBuilder(shard.MaxQubits+2).RY(0, 0.3).MeasureAll().MustBuild()
	if _, _, err := (Router{Force: Sharded}).Select(tooWide); err == nil {
		t.Error("forced sharded past shard.MaxQubits did not error")
	}
	mid := circuit.NewBuilder(4)
	mid.H(0).Measure(0).X(0)
	if _, _, err := (Router{Force: Sharded}).Select(mid.MustBuild()); err == nil {
		t.Error("forced sharded on a mid-measure circuit did not error")
	}
	// Mid-circuit measurement keeps forced dense's wider allowance: it
	// is the only collapse-capable engine, exactly as in auto selection.
	mid20 := circuit.NewBuilder(20)
	mid20.H(0).Measure(0).X(0)
	if m, _, err := (Router{Force: Dense}).Select(mid20.MustBuild()); err != nil || m != Dense {
		t.Errorf("forced dense on 20q mid-measure = (%v,%v), want dense", m, err)
	}
}

func TestForceFeasibility(t *testing.T) {
	clifford := circuit.NewBuilder(4).H(0).CX(0, 1).MeasureAll().MustBuild()
	generic := circuit.NewBuilder(4).RY(0, 0.3).MeasureAll().MustBuild()

	if m, _, err := (Router{Force: Dense}).Select(clifford); err != nil || m != Dense {
		t.Errorf("force dense = (%v,%v)", m, err)
	}
	if m, _, err := (Router{Force: Product}).Select(generic); err != nil || m != Product {
		t.Errorf("force product = (%v,%v)", m, err)
	}
	if _, _, err := (Router{Force: Clifford}).Select(generic); err == nil {
		t.Error("forced clifford on a generic circuit did not error")
	}
	wide := circuit.NewBuilder(qsim.MaxQubits + 2).H(0).MeasureAll().MustBuild()
	if _, _, err := (Router{Force: Dense}).Select(wide); err == nil {
		t.Error("forced dense past MaxQubits did not error")
	}
}

func TestNewSimulator(t *testing.T) {
	for _, m := range []Method{Dense, Clifford, Product, Sharded} {
		s, err := NewSimulator(m, 4)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if s.NQubits() != 4 {
			t.Fatalf("%v: NQubits = %d", m, s.NQubits())
		}
	}
	if _, err := NewSimulator(Auto, 4); err == nil {
		t.Error("NewSimulator accepted auto")
	}
	if _, err := NewSimulator(Dense, qsim.MaxQubits+1); err == nil {
		t.Error("dense simulator past MaxQubits")
	}
}
