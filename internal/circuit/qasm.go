package circuit

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// This file implements a pragmatic OpenQASM 2.0 subset — enough to
// round-trip every circuit the workloads generate. ParseQASM is the
// reader `qtenon-asm -dump` runs. WriteQASM is its round-trip oracle:
// the fuzz and round-trip tests check the parser against it, and no
// program writes QASM. (The decoupled baseline sizes its upload from
// the eQASM code internal/isa generates, not from this text.)

// WriteQASM serializes a fully bound circuit (no free parameters) as
// OpenQASM 2.0.
func WriteQASM(w io.Writer, c *Circuit) error {
	if c.NumParams != 0 {
		return fmt.Errorf("qasm: circuit has %d unbound parameters", c.NumParams)
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[%d];\ncreg c[%d];\n", c.NQubits, c.NQubits)
	for _, g := range c.Gates {
		switch {
		case g.Kind == Measure:
			fmt.Fprintf(bw, "measure q[%d] -> c[%d];\n", g.Qubit, g.Qubit)
		case g.Kind == I:
			fmt.Fprintf(bw, "id q[%d];\n", g.Qubit)
		case g.Kind.Arity() == 2 && g.Kind.Parameterized():
			fmt.Fprintf(bw, "%s(%s) q[%d],q[%d];\n", g.Kind, formatAngle(g.Theta), g.Qubit, g.Qubit2)
		case g.Kind.Arity() == 2:
			fmt.Fprintf(bw, "%s q[%d],q[%d];\n", g.Kind, g.Qubit, g.Qubit2)
		case g.Kind.Parameterized():
			fmt.Fprintf(bw, "%s(%s) q[%d];\n", g.Kind, formatAngle(g.Theta), g.Qubit)
		default:
			fmt.Fprintf(bw, "%s q[%d];\n", g.Kind, g.Qubit)
		}
	}
	return bw.Flush()
}

func formatAngle(theta float64) string { return strconv.FormatFloat(theta, 'g', 17, 64) }

// QASMString returns the OpenQASM text of c.
func QASMString(c *Circuit) (string, error) {
	var sb strings.Builder
	if err := WriteQASM(&sb, c); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// ParseQASM parses the subset emitted by WriteQASM.
func ParseQASM(r io.Reader) (*Circuit, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	var c *Circuit
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		line = strings.TrimSuffix(line, ";")
		switch {
		case strings.HasPrefix(line, "OPENQASM"), strings.HasPrefix(line, "include"), strings.HasPrefix(line, "creg"):
			continue
		case strings.HasPrefix(line, "qreg"):
			n, err := parseRegSize(line)
			if err != nil {
				return nil, fmt.Errorf("qasm:%d: %v", lineno, err)
			}
			if n <= 0 {
				return nil, fmt.Errorf("qasm:%d: non-positive register size %d", lineno, n)
			}
			c = New(n)
		default:
			if c == nil {
				return nil, fmt.Errorf("qasm:%d: gate before qreg declaration", lineno)
			}
			g, err := parseGateLine(line)
			if err != nil {
				return nil, fmt.Errorf("qasm:%d: %v", lineno, err)
			}
			c.Gates = append(c.Gates, g)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if c == nil {
		return nil, fmt.Errorf("qasm: no qreg declaration found")
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

func parseRegSize(line string) (int, error) {
	open, close := strings.IndexByte(line, '['), strings.IndexByte(line, ']')
	if open < 0 || close < open {
		return 0, fmt.Errorf("malformed register declaration %q", line)
	}
	return strconv.Atoi(line[open+1 : close])
}

func parseGateLine(line string) (Gate, error) {
	if strings.HasPrefix(line, "measure") {
		rest := strings.TrimSpace(strings.TrimPrefix(line, "measure"))
		qpart, _, _ := strings.Cut(rest, "->")
		q, err := parseQubitRef(strings.TrimSpace(qpart))
		if err != nil {
			return Gate{}, err
		}
		return Gate{Kind: Measure, Qubit: q, Param: NoParam}, nil
	}
	name, rest, ok := cutAny(line, " \t")
	if !ok {
		return Gate{}, fmt.Errorf("malformed gate line %q", line)
	}
	theta := 0.0
	if open := strings.IndexByte(name, '('); open >= 0 {
		close := strings.LastIndexByte(name, ')')
		if close < open {
			return Gate{}, fmt.Errorf("malformed angle in %q", line)
		}
		var err error
		theta, err = strconv.ParseFloat(name[open+1:close], 64)
		if err != nil {
			return Gate{}, fmt.Errorf("bad angle in %q: %v", line, err)
		}
		if math.IsNaN(theta) || math.IsInf(theta, 0) {
			return Gate{}, fmt.Errorf("non-finite angle in %q", line)
		}
		name = name[:open]
	}
	if name == "id" {
		name = "i"
	}
	kind, ok := KindByName(name)
	if !ok {
		return Gate{}, fmt.Errorf("unknown gate %q", name)
	}
	var qubits []int
	for _, ref := range strings.Split(rest, ",") {
		q, err := parseQubitRef(strings.TrimSpace(ref))
		if err != nil {
			return Gate{}, err
		}
		qubits = append(qubits, q)
	}
	g := Gate{Kind: kind, Theta: theta, Param: NoParam}
	if len(qubits) != kind.Arity() {
		return Gate{}, fmt.Errorf("gate %s expects %d qubits, got %d", kind, kind.Arity(), len(qubits))
	}
	g.Qubit = qubits[0]
	if len(qubits) == 2 {
		g.Qubit2 = qubits[1]
	}
	return g, nil
}

func parseQubitRef(ref string) (int, error) {
	open, close := strings.IndexByte(ref, '['), strings.IndexByte(ref, ']')
	if open < 0 || close < open {
		return 0, fmt.Errorf("malformed qubit reference %q", ref)
	}
	return strconv.Atoi(ref[open+1 : close])
}

func cutAny(s, cutset string) (before, after string, found bool) {
	if i := strings.IndexAny(s, cutset); i >= 0 {
		return s[:i], strings.TrimSpace(s[i+1:]), true
	}
	return s, "", false
}
