// Package host models the classical processors on both sides of the
// comparison: Qtenon's RISC-V cores (Rocket in-order and Boom-Large
// out-of-order, both at 1 GHz, Table 4) and the baseline's Intel
// i9-14900K. Cores are characterized by clock and effective IPC, and
// classical work is expressed as instruction counts through the Costs
// model, so core choice changes latency exactly the way §7.3 measures.
package host

import (
	"fmt"

	"qtenon/internal/sim"
)

// Core is a processor timing model.
type Core struct {
	Name  string
	Clock sim.Clock
	IPC   float64 // sustained instructions per cycle on this workload mix
}

// Rocket returns the in-order RISC-V Rocket configuration (Table 4).
func Rocket() Core { return Core{Name: "Rocket", Clock: sim.NewClock(1_000_000_000), IPC: 0.8} }

// BoomL returns the Boom-Large out-of-order configuration (Table 4).
func BoomL() Core { return Core{Name: "Boom-L", Clock: sim.NewClock(1_000_000_000), IPC: 1.9} }

// I9 returns the baseline host: an i9-14900K-class core (§7.1). The
// high clock and wide issue make the baseline's host computation fast —
// its problem is communication and recompilation, not raw compute.
func I9() Core { return Core{Name: "i9-14900K", Clock: sim.NewClock(5_000_000_000), IPC: 4} }

// Time converts an instruction count to latency on this core.
func (c Core) Time(instructions int64) sim.Time {
	if instructions <= 0 {
		return 0
	}
	return c.Clock.CyclesFloat(float64(instructions) / c.IPC)
}

// Costs expresses the classical tasks of a hybrid iteration as
// instruction counts. The constants are calibrated so the derived
// latencies land in the ranges the paper reports (JIT recompilation
// 1–100 ms on the baseline; incremental recompilation tens of ns on
// Qtenon; see DESIGN.md §4).
type Costs struct {
	// PostProcessPerShot is the per-shot cost of folding one measurement
	// into the running cost estimate, plus PostProcessPerWordShot per
	// 64-bit measurement word (parity extraction is popcount-based, so
	// the host works on packed words, not individual qubits).
	PostProcessPerShot     int64
	PostProcessPerWordShot int64
	// ParamUpdatePerParam is the optimizer arithmetic per parameter.
	ParamUpdatePerParam int64
	// JITFixed and JITPerGate model full-circuit recompilation through a
	// Qiskit-class Python stack (baseline, every iteration).
	JITFixed   int64
	JITPerGate int64
	// IncrementalPerParam models Qtenon's runtime incremental compilation:
	// quantize the new angle and issue a q_update.
	IncrementalPerParam int64
	// DriverPerMessage is host-side network-stack work per UDP message on
	// the decoupled baseline.
	DriverPerMessage int64
	// HostPerDelivery is Qtenon-side handling per measurement delivery
	// (barrier query + pointer chase); batching divides how often it is
	// paid (§6.3).
	HostPerDelivery int64
}

// DefaultCosts returns the calibrated model.
func DefaultCosts() Costs {
	return Costs{
		PostProcessPerShot:     12,
		PostProcessPerWordShot: 10,
		ParamUpdatePerParam:    60,
		JITFixed:               12_000_000, // framework fixed overhead
		JITPerGate:             10_000,     // per-gate transpile cost
		IncrementalPerParam:    40,         // quantize + pack one register
		DriverPerMessage:       9_000,      // syscall + UDP/IP stack
		HostPerDelivery:        100,        // barrier query + buffer bookkeeping
	}
}

// PostProcess is the instruction count to digest `shots` outcomes over
// `nqubits` qubits (packed into 64-bit words).
func (c Costs) PostProcess(shots, nqubits int) int64 {
	words := int64((nqubits + 63) / 64)
	return int64(shots) * (c.PostProcessPerShot + words*c.PostProcessPerWordShot)
}

// ParamUpdate is the optimizer update cost for nparams parameters.
func (c Costs) ParamUpdate(nparams int) int64 {
	return int64(nparams) * c.ParamUpdatePerParam
}

// JITCompile is the full-recompilation cost for a circuit of `gates`
// gates (baseline path).
func (c Costs) JITCompile(gates int) int64 {
	return c.JITFixed + int64(gates)*c.JITPerGate
}

// IncrementalCompile is Qtenon's recompilation cost when only `changed`
// parameters moved.
func (c Costs) IncrementalCompile(changed int) int64 {
	return int64(changed) * c.IncrementalPerParam
}

// Validate rejects non-positive cost entries.
func (c Costs) Validate() error {
	if c.PostProcessPerShot <= 0 || c.ParamUpdatePerParam <= 0 || c.JITPerGate <= 0 ||
		c.IncrementalPerParam <= 0 || c.DriverPerMessage <= 0 {
		return fmt.Errorf("host: non-positive cost in %+v", c)
	}
	return nil
}

// RoCCIssueCycles is the single-cycle RoCC command latency of datapath ❶.
const RoCCIssueCycles = 1
