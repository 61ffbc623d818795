// Package vqa builds the paper's three benchmark workloads (§7.1):
//
//   - QAOA: MaxCut on a 3-regular-style graph, standard alternating
//     ansatz with 5 layers → 2×layers parameters.
//   - VQE: molecular ground-state search with a hardware-efficient
//     RY+CZ ansatz; the qubit count is the number of spin-orbitals.
//   - QNN: a hardware-efficient ansatz of alternating RY(θ) and CZ
//     gates in 2 layers, trained as a binary classifier.
//
// A Workload couples the parameterized circuit with a cost function over
// Z-basis measurement outcomes — exactly the data the .measure segment
// delivers to the host. VQE additionally exposes its full Hamiltonian
// (with X/Y terms) for exact small-scale validation via measurement-basis
// grouping.
package vqa

import (
	"fmt"
	"math"

	"qtenon/internal/circuit"
	"qtenon/internal/pauli"
)

// CostWindow is the number of qubits a packed measurement word carries;
// cost functions for wider registers evaluate on this window (the
// >64-qubit experiments measure architecture traffic, not objective
// fidelity — DESIGN.md §1).
const CostWindow = 64

// Kind names a workload family.
type Kind uint8

// The three benchmark families, plus the Clifford-only scaling family
// (Stabilizer is not one of the paper's benchmarks; it exists to
// exercise the tableau route past the dense window).
const (
	QAOA Kind = iota
	VQE
	QNN
	Stabilizer
)

var kindNames = [...]string{"QAOA", "VQE", "QNN", "Stabilizer"}

// String returns the family name.
func (k Kind) String() string { return kindNames[k] }

// Workload is one benchmark instance.
type Workload struct {
	Kind    Kind
	Name    string
	Circuit *circuit.Circuit // parameterized ansatz ending in MeasureAll
	// Cost evaluates the objective from Z-basis outcomes (lower is
	// better).
	Cost func(outcomes []uint64) float64
	// Hamiltonian is the Z-diagonal objective when one exists (QAOA,
	// VQE's diagonal part); nil for QNN.
	Hamiltonian *pauli.Hamiltonian
	// FullHamiltonian carries X/Y terms too (VQE only).
	FullHamiltonian *pauli.Hamiltonian
	// InitialParams is a deterministic starting point.
	InitialParams []float64
	// Edges is the MaxCut graph (QAOA only).
	Edges [][2]int
}

// NumParams reports the ansatz parameter count.
func (w *Workload) NumParams() int { return w.Circuit.NumParams }

// NQubits reports the register width.
func (w *Workload) NQubits() int { return w.Circuit.NQubits }

// RegularGraph returns the deterministic MaxCut instance used throughout:
// a ring plus cross-chords (i, i+n/2), giving degree 3 for even n ≥ 4 —
// the paper's "MAX-CUT problem on n_q nodes".
//
// Edges are emitted edge-colored — even ring edges, odd ring edges, then
// the (mutually disjoint) chords — so the QAOA cost layer schedules in
// three parallel RZZ rounds instead of a serial chain around the ring.
// This matters: the ASAP schedule follows emission order, and a chain
// would inflate the circuit depth from O(1) to O(n) rounds.
func RegularGraph(n int) [][2]int {
	var edges [][2]int
	for i := 0; i+1 < n; i += 2 { // even ring edges (0,1),(2,3),…
		edges = append(edges, [2]int{i, i + 1})
	}
	for i := 1; i+1 < n; i += 2 { // odd ring edges (1,2),(3,4),…
		edges = append(edges, [2]int{i, i + 1})
	}
	if n > 2 && n%2 == 0 {
		edges = append(edges, [2]int{n - 1, 0}) // ring closure
	}
	if n >= 4 {
		for i := 0; i < n/2; i++ {
			edges = append(edges, [2]int{i, i + n/2})
		}
	}
	return edges
}

// NewQAOA builds a MaxCut QAOA instance with the standard alternating
// ansatz: H⊗n, then per layer RZZ(γ_l) on every edge and RX(β_l) on
// every qubit. Parameters: γ_0..γ_{L-1}, β_0..β_{L-1} interleaved as
// (2l, 2l+1).
func NewQAOA(nqubits, layers int) (*Workload, error) {
	if nqubits < 2 || layers < 1 {
		return nil, fmt.Errorf("vqa: QAOA needs ≥2 qubits and ≥1 layer")
	}
	edges := RegularGraph(nqubits)
	b := circuit.NewBuilder(nqubits)
	for q := 0; q < nqubits; q++ {
		b.H(q)
	}
	for l := 0; l < layers; l++ {
		gamma, beta := 2*l, 2*l+1
		for _, e := range edges {
			b.RZZP(e[0], e[1], gamma)
		}
		for q := 0; q < nqubits; q++ {
			b.RXP(q, beta)
		}
	}
	b.MeasureAll()
	c, err := b.Build()
	if err != nil {
		return nil, err
	}
	ham := pauli.MaxCut(nqubits, edges, 1)
	init := make([]float64, c.NumParams)
	for i := range init {
		init[i] = 0.1 + float64(0.05*float64(i)) // deterministic, symmetric-breaking
	}
	return &Workload{
		Kind:          QAOA,
		Name:          fmt.Sprintf("QAOA-%dq-%dl", nqubits, layers),
		Circuit:       c,
		Cost:          maxCutCost(edges),
		Hamiltonian:   ham,
		InitialParams: init,
		Edges:         edges,
	}, nil
}

// NewVQE builds a VQE instance over the molecular surrogate Hamiltonian
// with a hardware-efficient ansatz: `layers` rounds of per-qubit RY
// followed by a CZ entangling chain. Parameters: layers × nqubits.
func NewVQE(nqubits, layers int) (*Workload, error) {
	if nqubits < 2 || layers < 1 {
		return nil, fmt.Errorf("vqa: VQE needs ≥2 qubits and ≥1 layer")
	}
	full := pauli.MolecularSurrogate(nqubits)
	// Diagonal (Z-basis measurable) part drives the runtime cost loop,
	// restricted to the 64-qubit measurement window beyond 64 qubits.
	diag := pauli.NewHamiltonian(nqubits)
	diag.Offset = full.Offset
	for _, t := range full.Terms {
		if t.Str.ZBasisOnly() && t.Str.MaxQubit() < CostWindow {
			diag.MustAdd(t.Coeff, t.Str)
		}
	}
	b := circuit.NewBuilder(nqubits)
	p := 0
	for l := 0; l < layers; l++ {
		for q := 0; q < nqubits; q++ {
			b.RYP(q, p)
			p++
		}
		// Brick-pattern entangler: even pairs then odd pairs, so each
		// layer is two parallel CZ rounds rather than a serial chain —
		// the standard hardware-efficient layout, and what keeps the
		// shot duration in the paper's regime.
		for q := 0; q+1 < nqubits; q += 2 {
			b.CZ(q, q+1)
		}
		for q := 1; q+1 < nqubits; q += 2 {
			b.CZ(q, q+1)
		}
	}
	b.MeasureAll()
	c, err := b.Build()
	if err != nil {
		return nil, err
	}
	init := make([]float64, c.NumParams)
	for i := range init {
		init[i] = 0.2 + float64(0.03*float64(i%7))
	}
	return &Workload{
		Kind:            VQE,
		Name:            fmt.Sprintf("VQE-%dq-%dl", nqubits, layers),
		Circuit:         c,
		Cost:            diag.EstimateDiagonal,
		Hamiltonian:     diag,
		FullHamiltonian: full,
		InitialParams:   init,
	}, nil
}

// NewQNN builds the QNN benchmark: an input-encoding RY layer with fixed
// angles followed by 2 (or `layers`) trainable RY+CZ rounds. The loss is
// a least-squares binary classification of qubit 0's ⟨Z⟩ against target
// +1 for a deterministic input encoding.
func NewQNN(nqubits, layers int) (*Workload, error) {
	if nqubits < 2 || layers < 1 {
		return nil, fmt.Errorf("vqa: QNN needs ≥2 qubits and ≥1 layer")
	}
	b := circuit.NewBuilder(nqubits)
	for q := 0; q < nqubits; q++ {
		b.RY(q, 0.3+float64(0.1*float64(q%5))) // input feature encoding
	}
	p := 0
	for l := 0; l < layers; l++ {
		for q := 0; q < nqubits; q++ {
			b.RYP(q, p)
			p++
		}
		for q := 0; q+1 < nqubits; q += 2 {
			b.CZ(q, q+1)
		}
		for q := 1; q+1 < nqubits; q += 2 {
			b.CZ(q, q+1)
		}
	}
	b.MeasureAll()
	c, err := b.Build()
	if err != nil {
		return nil, err
	}
	init := make([]float64, c.NumParams)
	for i := range init {
		init[i] = 0.15 + float64(0.04*float64(i%5))
	}
	const target = 1.0 // class label in ⟨Z⟩ convention
	return &Workload{
		Kind:    QNN,
		Name:    fmt.Sprintf("QNN-%dq-%dl", nqubits, layers),
		Circuit: c,
		Cost: func(outcomes []uint64) float64 {
			if len(outcomes) == 0 {
				return 0
			}
			var z float64
			for _, o := range outcomes {
				if o&1 == 0 {
					z++
				} else {
					z--
				}
			}
			z /= float64(len(outcomes))
			return (z - target) * (z - target)
		},
		InitialParams: init,
	}, nil
}

// NewStabilizer builds the Clifford-only scaling workload: the graph
// state over RegularGraph — H⊗n then CZ on every edge, measured in the
// Z basis — with the MaxCut objective over the same edges. The circuit
// has zero parameters (there is nothing to optimize; every "iteration"
// is a pure evaluation), and every gate is exactly Clifford, so the
// router sends it to the stabilizer tableau at any width — this is the
// workload that crosses the dense simulator's 24-qubit wall.
func NewStabilizer(nqubits int) (*Workload, error) {
	if nqubits < 2 {
		return nil, fmt.Errorf("vqa: Stabilizer needs ≥2 qubits")
	}
	edges := RegularGraph(nqubits)
	b := circuit.NewBuilder(nqubits)
	for q := 0; q < nqubits; q++ {
		b.H(q)
	}
	for _, e := range edges {
		b.CZ(e[0], e[1])
	}
	b.MeasureAll()
	c, err := b.Build()
	if err != nil {
		return nil, err
	}
	ham := pauli.MaxCut(nqubits, edges, 1)
	return &Workload{
		Kind:          Stabilizer,
		Name:          fmt.Sprintf("Stabilizer-%dq", nqubits),
		Circuit:       c,
		Cost:          maxCutCost(edges),
		Hamiltonian:   ham,
		InitialParams: []float64{},
		Edges:         edges,
	}, nil
}

// maxCutCost is the MaxCut objective of QAOA and Stabilizer: minus the
// mean cut size of the outcomes. Measurement words carry 64 qubits;
// beyond that the cost is evaluated on the window's edges (the timing
// experiments at >64 qubits depend on traffic shape, not objective
// fidelity).
func maxCutCost(edges [][2]int) func(outcomes []uint64) float64 {
	var window [][2]int
	for _, e := range edges {
		if e[0] < CostWindow && e[1] < CostWindow {
			window = append(window, e)
		}
	}
	return func(outcomes []uint64) float64 {
		if len(outcomes) == 0 {
			return 0
		}
		var sum float64
		for _, o := range outcomes {
			sum -= float64(pauli.CutValue(window, o))
		}
		return sum / float64(len(outcomes))
	}
}

// New dispatches on Kind with the paper's layer defaults: QAOA 5 layers,
// VQE 3 layers, QNN 2 layers.
func New(kind Kind, nqubits int) (*Workload, error) {
	switch kind {
	case QAOA:
		return NewQAOA(nqubits, 5)
	case VQE:
		return NewVQE(nqubits, 3)
	case QNN:
		return NewQNN(nqubits, 2)
	case Stabilizer:
		return NewStabilizer(nqubits)
	default:
		return nil, fmt.Errorf("vqa: unknown workload kind %d", kind)
	}
}

// Kinds lists the benchmark families in paper order.
func Kinds() []Kind { return []Kind{QAOA, VQE, QNN} }

// ExactCost returns the exact expectation of the workload's Z-diagonal
// objective for a bound parameter vector. Clifford-only bound circuits
// with a Z-diagonal Hamiltonian in the 64-qubit window evaluate on the
// stabilizer tableau — exact at any register width; everything else
// runs the dense statevector and requires a small register. QNN has no
// Hamiltonian and is evaluated via its Cost on exact probabilities
// elsewhere.
func (w *Workload) ExactCost(params []float64) (float64, error) {
	if w.Hamiltonian == nil {
		return 0, fmt.Errorf("vqa: %s has no diagonal Hamiltonian", w.Name)
	}
	bound := w.Circuit.Bind(params)
	if v, ok, err := exactClifford(bound, w.Hamiltonian); ok {
		return v, err
	}
	st, err := runExact(bound)
	if err != nil {
		return 0, err
	}
	return w.Hamiltonian.Expectation(st), nil
}

var _ = math.Pi
