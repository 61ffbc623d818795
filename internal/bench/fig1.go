package bench

import (
	"fmt"
	"strings"

	"qtenon/internal/backend"
	"qtenon/internal/vqa"
)

// Figure1 reproduces the motivation figure: on the decoupled baseline,
// (a) the quantum share of end-to-end time for QAOA, VQE, and QNN, and
// (b) the detailed breakdown for the VQE workload.
func Figure1(sc Scale) (string, error) {
	nq := sc.HeadlineQubits()
	var sb strings.Builder
	sb.WriteString(header("Figure 1: motivation — decoupled baseline time shares"))

	tb := newTable("workload", "qubits", "quantum %", "classical %", "paper quantum %")
	paperQ := map[vqa.Kind]string{vqa.QAOA: "7.9 (64q)", vqa.VQE: "7.0 (56q)", vqa.QNN: "6.3 (64q)"}
	var vqeDetail string
	for _, k := range vqa.Kinds() {
		res, err := runBaseline(k, nq, backend.SPSA, sc) // as in Figure 13(a)
		if err != nil {
			return "", err
		}
		p := res.Breakdown.Percent()
		tb.AddRow(k.String(), nq, fmt.Sprintf("%.1f", p[0]), fmt.Sprintf("%.1f", 100-p[0]), paperQ[k])
		if k == vqa.VQE {
			vqeDetail = fmt.Sprintf(
				"(b) %d-qubit VQE breakdown: quantum %.1f%%, comm %.1f%%, pulse %.1f%%, host %.1f%% (total %v)\n"+
					"    paper: quantum 7.9%%, comm 65.1%%, pulse 4.4%%, host 9%% (plus compile) of 204.3 ms\n",
				nq, p[0], p[1], p[2], p[3], res.Breakdown.Total())
		}
	}
	sb.WriteString(tb.String())
	sb.WriteString(vqeDetail)
	return sb.String(), nil
}
