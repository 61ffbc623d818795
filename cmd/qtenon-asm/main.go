// Command qtenon-asm assembles and disassembles Qtenon RoCC programs,
// and dumps the controller-side .program image of a quantum circuit.
//
// Usage:
//
//	qtenon-asm < program.s             # assemble: one hex word per line
//	qtenon-asm -d < program.hex       # disassemble hex words
//	qtenon-asm -dump < circuit.qasm   # compile OpenQASM → .program listing
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"qtenon/internal/circuit"
	"qtenon/internal/compiler"
	"qtenon/internal/isa"
	"qtenon/internal/qcc"
)

func main() {
	dis := flag.Bool("d", false, "disassemble hex words from stdin")
	dump := flag.Bool("dump", false, "compile an OpenQASM circuit from stdin and dump its .program image")
	flag.Parse()

	if *dump {
		c, err := circuit.ParseQASM(os.Stdin)
		if err != nil {
			fail(err)
		}
		cfg := qcc.DefaultConfig(c.NQubits)
		prog, err := compiler.Compile(c, cfg)
		if err != nil {
			fail(err)
		}
		fmt.Printf("; %d qubits, %d gates → %d program entries (%d pulse slots), %d parameter registers\n",
			c.NQubits, prog.Gates, prog.TotalEntries(), prog.PulseEntriesNeeded, c.NumParams)
		fmt.Print(prog.Listing(cfg))
		return
	}

	if *dis {
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				continue
			}
			w, err := strconv.ParseUint(strings.TrimPrefix(line, "0x"), 16, 32)
			if err != nil {
				fail(fmt.Errorf("bad hex word %q: %v", line, err))
			}
			text, err := isa.Disassemble(uint32(w))
			if err != nil {
				fail(err)
			}
			fmt.Println(text)
		}
		if err := sc.Err(); err != nil {
			fail(err)
		}
		return
	}

	words, err := isa.AssembleAll(os.Stdin)
	if err != nil {
		fail(err)
	}
	for _, w := range words {
		fmt.Printf("0x%08x\n", w)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "qtenon-asm:", err)
	os.Exit(1)
}
