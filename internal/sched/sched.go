// Package sched implements Qtenon's quantum-host scheduling (§6.3):
// the batched transmission policy of Algorithm 1 and the evaluation
// timeline that overlaps quantum execution, TileLink transmission, and
// host post-processing under fine-grained synchronization (Figure 9(b)),
// or serializes them under FENCE semantics (Figure 9(a)).
package sched

import (
	"fmt"

	"qtenon/internal/sim"
)

// SyncMode selects the quantum-host synchronization scheme.
type SyncMode uint8

// Synchronization schemes compared in Figure 16(a).
const (
	// FENCE is the RISC-V default: the host stalls until all quantum
	// operations complete, then transfers, then post-processes.
	FENCE SyncMode = iota
	// FineGrained uses the soft memory barrier: transfers issue per batch
	// during q_run and the host consumes data as it becomes safe.
	FineGrained
)

// String names the mode.
func (m SyncMode) String() string { return [...]string{"FENCE", "fine-grained"}[m] }

// BatchInterval computes Algorithm 1's transmission interval K = ⌊B/N⌋
// (bus width bits / qubit count), clamped to at least 1: with more qubits
// than bus bits, every shot ships alone.
func BatchInterval(busWidthBits, nqubits int) int {
	if busWidthBits <= 0 || nqubits <= 0 {
		panic(fmt.Sprintf("sched: non-positive batch inputs %d/%d", busWidthBits, nqubits))
	}
	k := busWidthBits / nqubits
	if k < 1 {
		k = 1
	}
	return k
}

// PlanBatches splits `shots` measurements into transmission batches of at
// most k shots: the loop of Algorithm 1 lines 5–13 plus the remainder
// flush of lines 14–16.
func PlanBatches(shots, k int) []int {
	if shots <= 0 || k <= 0 {
		return nil
	}
	n := shots / k
	if shots%k != 0 {
		n++
	}
	batches := make([]int, n)
	for i := range batches {
		batches[i] = k
	}
	batches[n-1] = shots - (n-1)*k
	return batches
}

// TimelineInput describes one cost evaluation for timeline computation.
// All durations are simulated time.
type TimelineInput struct {
	Mode SyncMode

	// Prep phase, strictly before quantum starts.
	HostPrep  sim.Time // incremental/JIT compilation and optimizer setup
	CommPrep  sim.Time // q_update / q_set traffic
	PulsePrep sim.Time // q_gen pipeline occupancy

	// Quantum phase.
	ShotTime sim.Time // per shot, including ADI round trip
	Batches  []int    // shots per transmission batch, in order

	// Per-batch costs.
	TransferPerBatch sim.Time // TileLink PUT time for one batch
	HostPerShot      sim.Time // post-processing per shot
	HostPerBatch     sim.Time // fixed per-delivery handling cost

	// Tail phase.
	HostTail sim.Time // parameter update after all data is in
}

// Timeline is the computed schedule of one evaluation.
type Timeline struct {
	Total   sim.Time // wall-clock for the evaluation
	Quantum sim.Time // chip busy time
	// Exposed classical time by category (Total − Quantum = sum of these).
	ExposedComm  sim.Time
	ExposedPulse sim.Time
	ExposedHost  sim.Time
	// CommActivity is total transmission occupancy including overlapped
	// transfers (the "communication work done", used for breakdowns).
	CommActivity sim.Time
	// HostActivity is total host busy time including work hidden under
	// the quantum shadow. Figure 16(b)'s "host computation time" is this
	// quantity: batching shrinks it by amortizing per-delivery handling.
	HostActivity sim.Time
}

// Compute derives the evaluation timeline.
//
// Fine-grained mode (Figure 9(b)): prep runs first; shots execute back to
// back; batch b's transfer starts when its last shot completes and the
// previous transfer finished; the host consumes each batch when its
// transfer lands and the host is free. Work that fits under the quantum
// shadow costs nothing on the critical path.
//
// FENCE mode (Figure 9(a)): all transfers start only after the last shot
// (first FENCE), and host post-processing starts only after all
// transfers complete (second FENCE).
func Compute(in TimelineInput) Timeline {
	var tl Timeline
	shots := 0
	for _, b := range in.Batches {
		shots += b
	}
	prep := in.HostPrep + in.CommPrep + in.PulsePrep
	qStart := prep
	qEnd := qStart + sim.Time(shots)*in.ShotTime
	tl.Quantum = qEnd - qStart
	tl.CommActivity = in.CommPrep + sim.Time(len(in.Batches))*in.TransferPerBatch
	tl.HostActivity = in.HostPrep + in.HostTail +
		sim.Time(shots)*in.HostPerShot + sim.Time(len(in.Batches))*in.HostPerBatch

	var lastDelivery sim.Time // when the final batch lands in host memory
	var hostFree sim.Time
	switch in.Mode {
	case FineGrained:
		hostFree = qStart // host is idle once q_run is issued
		var busFree sim.Time
		done := 0
		for _, b := range in.Batches {
			done += b
			shotEnd := qStart + sim.Time(done)*in.ShotTime
			start := max(shotEnd, busFree)
			busFree = start + in.TransferPerBatch
			delivery := busFree
			lastDelivery = delivery
			begin := max(delivery, hostFree)
			hostFree = begin + sim.Time(b)*in.HostPerShot + in.HostPerBatch
		}
	default: // FENCE
		busFree := qEnd // first FENCE: wait for all quantum ops
		for range in.Batches {
			busFree += in.TransferPerBatch
		}
		lastDelivery = busFree // second FENCE: all transfers complete
		hostFree = lastDelivery
		for _, b := range in.Batches {
			hostFree += sim.Time(b)*in.HostPerShot + in.HostPerBatch
		}
	}
	end := hostFree + in.HostTail
	if end < qEnd {
		end = qEnd
	}
	tl.Total = end

	// Attribute the exposed (non-quantum) time. Prep is exposed by
	// definition; the tail splits into transfer overhang and host work.
	tl.ExposedHost = in.HostPrep
	tl.ExposedComm = in.CommPrep
	tl.ExposedPulse = in.PulsePrep
	tailStart := qEnd
	if end > tailStart {
		tail := end - tailStart
		commOverhang := sim.Time(0)
		if lastDelivery > qEnd {
			commOverhang = lastDelivery - qEnd
		}
		if commOverhang > tail {
			commOverhang = tail
		}
		tl.ExposedComm += commOverhang
		tl.ExposedHost += tail - commOverhang
	}
	return tl
}

// Exposed reports the total exposed classical time.
func (t Timeline) Exposed() sim.Time { return t.ExposedComm + t.ExposedPulse + t.ExposedHost }
