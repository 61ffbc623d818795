// Transpile: the full lowering pipeline from an idealized circuit to
// controller-ready program entries — peephole simplification, routing
// onto a line-coupled device, and compilation to the .program image —
// with the cost of each stage made visible.
package main

import (
	"fmt"
	"log"

	"qtenon/internal/circuit"
	"qtenon/internal/compiler"
	"qtenon/internal/mapper"
	"qtenon/internal/qcc"
	"qtenon/internal/vqa"
)

func main() {
	// A deliberately sloppy logical circuit: a QAOA layer wrapped in
	// redundant basis changes.
	w, err := vqa.NewQAOA(8, 2)
	if err != nil {
		log.Fatal(err)
	}
	sloppy := w.Circuit.Clone()
	// Prepend H·H pairs (a common artifact of naive codegen).
	var pad []circuit.Gate
	for q := 0; q < 8; q++ {
		pad = append(pad,
			circuit.Gate{Kind: circuit.H, Qubit: q, Param: circuit.NoParam},
			circuit.Gate{Kind: circuit.H, Qubit: q, Param: circuit.NoParam})
	}
	sloppy.Gates = append(pad, sloppy.Gates...)

	fmt.Printf("stage 0  logical circuit:       %3d gates\n", len(sloppy.Gates))

	// Stage 1: peephole simplification.
	simplified := circuit.Simplify(sloppy)
	fmt.Printf("stage 1  after Simplify:        %3d gates (-%d)\n",
		len(simplified.Gates), len(sloppy.Gates)-len(simplified.Gates))

	// Stage 2: route onto a line-coupled 8-transmon device.
	cm := mapper.Line(8)
	routed, err := mapper.Route(simplified, cm)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stage 2  after routing (line):  %3d gates (+%d SWAPs as 3×CX)\n",
		len(routed.Circuit.Gates), routed.SwapsInserted)
	if err := mapper.Validate(routed.Circuit, cm); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("         final layout (logical→physical): %v\n", routed.Layout)

	// Stage 3: compile to the controller's .program image.
	cfg := qcc.DefaultConfig(8)
	prog, err := compiler.Compile(routed.Circuit, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stage 3  compiled:              %3d program entries, %d pulse slots, %d parameter regs\n",
		prog.TotalEntries(), prog.PulseEntriesNeeded, routed.Circuit.NumParams)

	// Show qubit 0's chunk as the controller will hold it.
	fmt.Println("\nqubit 0 program chunk:")
	for i, e := range prog.Entries[0] {
		fmt.Printf("  0x%05x: %s\n", cfg.ProgramBase(0)+int64(i), compiler.FormatEntry(e))
		if i == 7 {
			fmt.Printf("  … (%d more)\n", len(prog.Entries[0])-8)
			break
		}
	}
}
