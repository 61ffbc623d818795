package system

import (
	"testing"

	"qtenon/internal/host"
	"qtenon/internal/mapper"
	"qtenon/internal/vqa"
)

// Routing onto a line: the system runs the SWAP-inserted circuit, pays
// for the extra gates, and still computes the same kind of cost.
func TestSystemWithCouplingMap(t *testing.T) {
	w, err := vqa.New(vqa.QAOA, 8)
	if err != nil {
		t.Fatal(err)
	}
	allToAll := DefaultConfig(host.Rocket())
	allToAll.Shots = 200
	routed := allToAll
	routed.Coupling = mapper.Line(8)

	sa, err := New(allToAll, w)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := New(routed, w)
	if err != nil {
		t.Fatal(err)
	}
	costA, err := sa.Evaluate(w.InitialParams)
	if err != nil {
		t.Fatal(err)
	}
	costR, err := sr.Evaluate(w.InitialParams)
	if err != nil {
		t.Fatal(err)
	}
	// Both are valid MaxCut costs (non-positive); the routed one is
	// sampled from an equivalent state so it is statistically similar,
	// but shot noise and the different RNG consumption prevent equality.
	if costA > 0 || costR > 0 {
		t.Errorf("costs = %v, %v; want ≤ 0", costA, costR)
	}
	// Routing adds gates → more pulses generated and longer quantum time.
	if sr.Result().PulsesGenerated <= sa.Result().PulsesGenerated {
		t.Errorf("routed pulses %d not above all-to-all %d", sr.Result().PulsesGenerated, sa.Result().PulsesGenerated)
	}
	if sr.Result().Breakdown.Quantum <= sa.Result().Breakdown.Quantum {
		t.Errorf("routed quantum %v not above all-to-all %v", sr.Result().Breakdown.Quantum, sa.Result().Breakdown.Quantum)
	}
}

// The routed cost converges to the unrouted cost in expectation: with
// many shots the two differ by only sampling noise.
func TestRoutedCostStatisticallyConsistent(t *testing.T) {
	w, err := vqa.New(vqa.QAOA, 6)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(coupled bool) float64 {
		cfg := DefaultConfig(host.Rocket())
		cfg.Shots = 4000
		if coupled {
			cfg.Coupling = mapper.Line(6)
		}
		s, err := New(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		c, err := s.Evaluate(w.InitialParams)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, r := mk(false), mk(true)
	diff := a - r
	if diff < 0 {
		diff = -diff
	}
	// Costs are O(edge count) ≈ 9; sampling σ at 4000 shots is ≈ 0.05
	// per edge term. Allow a generous window.
	if diff > 0.6 {
		t.Errorf("routed cost %v vs all-to-all %v differ by %v", r, a, diff)
	}
}

// A coupling map wider than the workload routes onto more physical
// qubits than the circuit has logical ones; every hardware structure,
// the SLT bank included, is sized by the routed width.
func TestSystemOnWiderCouplingMap(t *testing.T) {
	w, err := vqa.New(vqa.QAOA, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(host.Rocket())
	cfg.Shots = 200
	cfg.Coupling = mapper.Grid(3, 2)
	s, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	cost, err := s.Evaluate(w.InitialParams)
	if err != nil {
		t.Fatal(err)
	}
	if cost > 0 {
		t.Errorf("cost = %v, want ≤ 0", cost)
	}
}
