package compiler

import (
	"fmt"
	"strings"

	"qtenon/internal/circuit"
	"qtenon/internal/qcc"
)

// Listing renders a compiled program's .program image as a human-readable
// memory listing, one line per entry with its QAddress — the inspection
// view used by `qtenon-asm -dump`.
func (p *Program) Listing(cfg qcc.Config) string {
	var sb strings.Builder
	for q, chunk := range p.Entries {
		if len(chunk) == 0 {
			continue
		}
		fmt.Fprintf(&sb, "; qubit %d chunk @ 0x%05x (%d entries)\n", q, cfg.ProgramBase(q), len(chunk))
		for i, e := range chunk {
			fmt.Fprintf(&sb, "0x%05x: %s\n", cfg.ProgramBase(q)+int64(i), FormatEntry(e))
		}
	}
	return sb.String()
}

// FormatEntry renders one program entry in assembly-like form, e.g.
//
//	ry reg[3]            status=invalid
//	rx 1.570796          status=valid qaddr=0x12
//	h                    status=valid qaddr=0x3
//	measure              status=valid
//
// Only the rotation kinds (circuit.Kind.Parameterized) print an angle.
func FormatEntry(e qcc.ProgramEntry) string {
	kind := circuit.Kind(e.Type)
	var operand string
	switch {
	case kind == circuit.Measure:
	case e.RegFlag:
		operand = fmt.Sprintf(" reg[%d]", e.Data)
	case kind.Parameterized():
		operand = fmt.Sprintf(" %.6f", qcc.DequantizeAngle(e.Data))
	}
	status := [...]string{"invalid", "valid", "pending"}[min(int(e.Status), 2)]
	out := fmt.Sprintf("%-8s%-12s status=%s", kind, operand, status)
	if e.Status == qcc.StatusValid && kind != circuit.Measure {
		out += fmt.Sprintf(" qaddr=%#x", e.QAddr)
	}
	return strings.TrimRight(out, " ")
}

// ReconstructGates rebuilds the per-qubit gate views from a cache's
// .program segment — the decompilation direction, used to verify that
// what was shipped with q_set is what the controller holds. Two-qubit
// gates appear once per operand chunk (that is how they are stored).
func ReconstructGates(cache *qcc.Cache, counts []int) ([][]circuit.Gate, error) {
	cfg := cache.Config()
	if len(counts) != cfg.NQubits {
		return nil, fmt.Errorf("compiler: counts for %d qubits, cache has %d", len(counts), cfg.NQubits)
	}
	out := make([][]circuit.Gate, cfg.NQubits)
	for q := 0; q < cfg.NQubits; q++ {
		for i := 0; i < counts[q]; i++ {
			e, err := cache.ReadProgram(q, i, qcc.HostAccess)
			if err != nil {
				return nil, err
			}
			g := circuit.Gate{Kind: circuit.Kind(e.Type), Qubit: q, Param: circuit.NoParam}
			if e.RegFlag {
				g.Param = int(e.Data)
			} else if g.Kind.Parameterized() {
				g.Theta = qcc.DequantizeAngle(e.Data)
			}
			out[q] = append(out[q], g)
		}
	}
	return out, nil
}
