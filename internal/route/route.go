// Package route selects a simulation method for each circuit — the
// automatic technique switching that lets the system models run past
// the dense statevector's 24-qubit wall (DESIGN.md §12). Analyze counts
// a bound circuit's non-Clifford gates and detects mid-circuit
// measurement; the Router maps that and the register width to one of
// four engines:
//
//   - dense: the contiguous SoA statevector (exact, ≤ the router's
//     DenseLimit qubits)
//   - sharded: the chunked statevector (exact, dense-equivalent
//     bit-for-bit, ≤ qsim.ShardedMaxQubits qubits) — the dense-exact
//     window past the contiguous limit
//   - clifford: the CHP stabilizer tableau (exact, Clifford-only,
//     thousands of qubits)
//   - product: the mean-field surrogate (approximate, O(n), any width)
//
// The routing rules preserve the pre-router behavior bit-for-bit on
// every dense-window workload: chips at or below the dense limit route
// dense with an unchanged RNG stream. Fully Clifford circuits route to
// the tableau at any width; generic circuits past the dense limit route
// to the sharded engine up to qsim.ShardedMaxQubits and to the product
// surrogate beyond. A circuit with a mid-circuit measurement is an
// error: every engine's Run skips Measure gates, so none collapses the
// state (qsim.RunTrajectory is the collapse path).
package route

import (
	"fmt"

	"qtenon/internal/circuit"
	"qtenon/internal/qsim"
	"qtenon/internal/qsim/engine"
	"qtenon/internal/qsim/product"
	"qtenon/internal/qsim/tableau"
)

// Method identifies a simulation engine (or automatic selection).
type Method uint8

// The selectable methods. Auto is the zero value: let the router decide.
const (
	Auto Method = iota
	Dense
	Clifford
	Product
	Sharded
	NumMethods // array-sizing sentinel, not a method
)

var methodNames = [NumMethods]string{
	Auto: "auto", Dense: "dense", Clifford: "clifford", Product: "product",
	Sharded: "sharded",
}

// String returns the CLI/metrics name of the method.
func (m Method) String() string {
	if int(m) < len(methodNames) {
		return methodNames[m]
	}
	return fmt.Sprintf("method(%d)", uint8(m))
}

// ParseMethod maps a CLI name to its Method.
func ParseMethod(name string) (Method, error) {
	for m, n := range methodNames {
		if n == name {
			return Method(m), nil
		}
	}
	return Auto, fmt.Errorf("route: unknown method %q (want auto|dense|clifford|product|sharded)", name)
}

// DefaultDenseLimit is the widest register the router sends to the
// contiguous dense engine (quantum.ExactLimit names the same value).
// Generic circuits past it route to the sharded engine (up to
// DefaultShardedLimit), then the product surrogate.
const DefaultDenseLimit = 16

// DefaultShardedLimit is the widest register the router sends to the
// sharded dense engine: the effective dense-exact window is ~28 qubits
// (4 GiB of amplitudes across shards) rather than the contiguous
// engine's monolithic-allocation wall.
const DefaultShardedLimit = qsim.ShardedMaxQubits

// Analysis is what the analyzer learned about one circuit.
type Analysis struct {
	NQubits     int
	Gates       int // total gate count, Measure included
	NonClifford int // gates the tableau cannot apply (unbound rotations count)
	MidMeasure  bool
	MidQubit    int // the first qubit measured mid-circuit, when MidMeasure
}

// Analyze scans a circuit once. A Measure is mid-circuit when a later
// non-Measure gate touches the same qubit. The measured flags live on
// the stack for up to 64 qubits.
func Analyze(c *circuit.Circuit) Analysis {
	a := Analysis{NQubits: c.NQubits, Gates: len(c.Gates)}
	var buf [64]bool
	var measured []bool
	if c.NQubits <= len(buf) {
		measured = buf[:c.NQubits]
	} else {
		measured = make([]bool, c.NQubits)
	}
	for _, g := range c.Gates {
		if g.Kind == circuit.Measure {
			measured[g.Qubit] = true
			continue
		}
		if !a.MidMeasure {
			switch {
			case measured[g.Qubit]:
				a.MidMeasure, a.MidQubit = true, g.Qubit
			case g.Kind.Arity() == 2 && measured[g.Qubit2]:
				a.MidMeasure, a.MidQubit = true, g.Qubit2
			}
		}
		if !tableau.IsClifford(g) {
			a.NonClifford++
		}
	}
	return a
}

// Router maps circuits to methods.
type Router struct {
	// DenseLimit is the widest register routed to the contiguous dense
	// engine; 0 means DefaultDenseLimit.
	DenseLimit int
	// Force pins every circuit to one method (non-Auto); selection fails
	// with an error when the forced method cannot run the circuit.
	Force Method
}

func (r Router) denseLimit() int {
	if r.DenseLimit > 0 {
		return r.DenseLimit
	}
	return DefaultDenseLimit
}

// SelectWidth chooses a method for a bound circuit executing on a
// register of the given width (≥ the circuit's own width). A circuit
// with a mid-circuit measurement is an error under every method.
func (r Router) SelectWidth(c *circuit.Circuit, width int) (Method, Analysis, error) {
	if width < c.NQubits {
		width = c.NQubits
	}
	a := Analyze(c)
	if a.MidMeasure {
		return Auto, a, fmt.Errorf("route: qubit %d is measured mid-circuit, and no engine collapses the state inside Run", a.MidQubit)
	}
	if r.Force != Auto {
		if err := r.feasible(r.Force, a, width); err != nil {
			return Auto, a, err
		}
		return r.Force, a, nil
	}
	switch {
	case a.NonClifford == 0:
		return Clifford, a, nil
	case width <= r.denseLimit():
		return Dense, a, nil
	case width <= DefaultShardedLimit:
		// Generic circuits past the contiguous window stay dense-exact
		// on the sharded engine up to its window.
		return Sharded, a, nil
	default:
		return Product, a, nil
	}
}

// feasible reports whether a forced method can run the analyzed
// circuit. Forcing dense pins the *contiguous* engine and respects the
// router's contiguous window: past DenseLimit the dense-exact path is
// the sharded engine, so a forced-dense 24-qubit run fails loudly
// rather than silently allocating a monolithic statevector the router
// would never choose.
func (r Router) feasible(m Method, a Analysis, width int) error {
	switch m {
	case Dense:
		if width > r.denseLimit() {
			return fmt.Errorf("route: dense forced on %d qubits, contiguous limit %d", width, r.denseLimit())
		}
	case Clifford:
		if a.NonClifford > 0 {
			return fmt.Errorf("route: clifford forced on a circuit with %d non-Clifford gates", a.NonClifford)
		}
		if width > tableau.MaxQubits {
			return fmt.Errorf("route: clifford forced on %d qubits, limit %d", width, tableau.MaxQubits)
		}
	case Sharded:
		if width > qsim.ShardedMaxQubits {
			return fmt.Errorf("route: sharded forced on %d qubits, limit %d", width, qsim.ShardedMaxQubits)
		}
	case Product:
	default:
		return fmt.Errorf("route: cannot force method %v", m)
	}
	return nil
}

// NewSimulator constructs the engine for a resolved (non-Auto) method
// over n qubits. On error the Simulator is a nil interface.
func NewSimulator(m Method, n int) (engine.Simulator, error) {
	switch m {
	case Dense:
		if n <= 0 || n > qsim.MaxQubits {
			return nil, fmt.Errorf("route: qubit count %d outside the dense window (0,%d]", n, qsim.MaxQubits)
		}
		return qsim.NewState(n), nil
	case Clifford:
		t, err := tableau.New(n)
		if err != nil {
			return nil, err
		}
		return t, nil
	case Product:
		if n <= 0 {
			return nil, fmt.Errorf("route: non-positive qubit count %d", n)
		}
		return product.New(n), nil
	case Sharded:
		s, err := qsim.NewSharded(n)
		if err != nil {
			return nil, err
		}
		return s, nil
	default:
		return nil, fmt.Errorf("route: no engine for method %v", m)
	}
}
