// Package compiler lowers circuits to Qtenon .program entries and plans
// the runtime communication that keeps them current.
//
// The key insight of the Qtenon ISA (§6.1) is treating the quantum
// program as computable data: entries are indexed by QAddress (so no
// per-gate qubit index is encoded), and gates whose angle changes between
// optimizer iterations carry reg_flag=1 with a .regfile index in their
// data field. Updating a parameter is then a single q_update of one
// register — dynamic incremental compilation — instead of the baseline's
// full just-in-time recompilation.
package compiler

import (
	"fmt"

	"qtenon/internal/circuit"
	"qtenon/internal/pipeline"
	"qtenon/internal/qcc"
)

// Program is a compiled Qtenon quantum program.
type Program struct {
	NQubits int
	// Entries holds each qubit's program chunk in issue order.
	Entries [][]qcc.ProgramEntry
	// Items enumerates (qubit, index) pairs in gate order — the q_gen
	// work list. Two-qubit gates contribute two items (each operand qubit
	// drives its own pulse).
	Items []pipeline.WorkItem
	// NumParams counts the parameters; parameter i lives in .regfile
	// register i (the regfile bounds the parameter count).
	NumParams int
	// Gates and TwoQubit count the source circuit's population
	// (excluding measurements).
	Gates    int
	TwoQubit int
	// PulseEntriesNeeded counts distinct drive pulses (2-qubit gates
	// count twice).
	PulseEntriesNeeded int

	// imgScratch is Load's reusable regfile-image buffer; repeated loads
	// (the non-incremental configuration re-uploads every evaluation) do
	// not re-allocate it.
	imgScratch []uint32
}

// Compile lowers a parameterized circuit for a controller with geometry
// cfg. Measurement gates become StatusValid entries (readout pulses are
// fixed waveforms outside the PGU path).
func Compile(c *circuit.Circuit, cfg qcc.Config) (*Program, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if c.NQubits > cfg.NQubits {
		return nil, fmt.Errorf("compiler: circuit needs %d qubits, controller has %d", c.NQubits, cfg.NQubits)
	}
	if c.NumParams > cfg.RegfileEntries {
		return nil, fmt.Errorf("compiler: %d parameters exceed the %d-entry regfile", c.NumParams, cfg.RegfileEntries)
	}
	p := &Program{
		NQubits:   c.NQubits,
		Entries:   make([][]qcc.ProgramEntry, c.NQubits),
		NumParams: c.NumParams,
	}
	next := make([]int, c.NQubits) // next free entry per qubit chunk

	emit := func(q int, e qcc.ProgramEntry, work bool) error {
		if next[q] >= cfg.ProgramEntries {
			return fmt.Errorf("compiler: qubit %d program chunk overflow (%d entries)", q, cfg.ProgramEntries)
		}
		p.Entries[q] = append(p.Entries[q], e)
		if work {
			p.Items = append(p.Items, pipeline.WorkItem{Qubit: q, Index: next[q]})
		}
		next[q]++
		return nil
	}

	for _, g := range c.Gates {
		e := qcc.ProgramEntry{Type: uint8(g.Kind), Status: qcc.StatusInvalid}
		switch {
		case g.Kind == circuit.Measure:
			e.Status = qcc.StatusValid // fixed readout waveform
			if err := emit(g.Qubit, e, false); err != nil {
				return nil, err
			}
			continue
		case g.Param != circuit.NoParam:
			e.RegFlag = true
			e.Data = uint32(g.Param)
		default:
			e.Data = qcc.QuantizeAngle(g.Theta)
		}
		p.Gates++
		p.PulseEntriesNeeded++
		if err := emit(g.Qubit, e, true); err != nil {
			return nil, err
		}
		if g.Kind.Arity() == 2 {
			p.TwoQubit++
			p.PulseEntriesNeeded++
			if err := emit(g.Qubit2, e, true); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

// TotalEntries counts program entries across qubit chunks.
func (p *Program) TotalEntries() int {
	n := 0
	for _, chunk := range p.Entries {
		n += len(chunk)
	}
	return n
}

// AppendRegfileImage appends the quantized .regfile image of params —
// one register per parameter — to dst and returns the extended slice
// (pass a recycled dst[:0] to render images without allocating).
func (p *Program) AppendRegfileImage(dst []uint32, params []float64) ([]uint32, error) {
	if len(params) != p.NumParams {
		return nil, fmt.Errorf("compiler: %d params for %d registers", len(params), p.NumParams)
	}
	start := len(dst)
	if tot := start + len(params); tot <= cap(dst) {
		dst = dst[:tot]
	} else {
		next := make([]uint32, tot)
		copy(next, dst)
		dst = next
	}
	img := dst[start:]
	for i, v := range params {
		img[i] = qcc.QuantizeAngle(v)
	}
	return dst, nil
}

// Delta describes one incremental update: write the quantized angle
// Value of parameter Param into register Param.
type Delta struct {
	Param int
	Value uint32
}

// Diff plans the q_update traffic to move the controller from oldParams
// to newParams: one delta per parameter whose quantized value changed.
// This is the incremental-compilation payoff measured in Table 5 — under
// gradient descent only one parameter moves per evaluation.
func (p *Program) Diff(oldParams, newParams []float64) ([]Delta, error) {
	return p.AppendDiff(nil, oldParams, newParams)
}

// AppendDiff appends the planned deltas to dst and returns the extended
// slice — the reuse-friendly form of Diff. The hot loop of the full
// Qtenon system calls this once per cost evaluation, so recycling the
// delta buffer keeps the incremental-compilation path allocation-free.
func (p *Program) AppendDiff(dst []Delta, oldParams, newParams []float64) ([]Delta, error) {
	if len(oldParams) != p.NumParams || len(newParams) != p.NumParams {
		return nil, fmt.Errorf("compiler: Diff arity mismatch (%d/%d vs %d)", len(oldParams), len(newParams), p.NumParams)
	}
	for i := range newParams {
		nv := qcc.QuantizeAngle(newParams[i])
		if qcc.QuantizeAngle(oldParams[i]) != nv {
			dst = append(dst, Delta{Param: i, Value: nv})
		}
	}
	return dst, nil
}

// Load writes the program image and regfile into a controller cache, the
// functional effect of the initial q_set sequence.
func (p *Program) Load(cache *qcc.Cache, params []float64) error {
	for q, chunk := range p.Entries {
		for i, e := range chunk {
			if err := cache.WriteProgram(q, i, e, qcc.HostAccess); err != nil {
				return err
			}
		}
	}
	img, err := p.AppendRegfileImage(p.imgScratch[:0], params)
	if err != nil {
		return err
	}
	p.imgScratch = img
	for reg, v := range img {
		if err := cache.WriteReg(reg, v, qcc.HostAccess); err != nil {
			return err
		}
	}
	return nil
}

// ApplyDeltas writes planned deltas into the regfile (the functional
// effect of the q_update sequence).
func ApplyDeltas(cache *qcc.Cache, deltas []Delta) error {
	for _, d := range deltas {
		if err := cache.WriteReg(d.Param, d.Value, qcc.HostAccess); err != nil {
			return err
		}
	}
	return nil
}
