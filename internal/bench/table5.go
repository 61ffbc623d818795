package bench

import (
	"fmt"
	"strings"

	"qtenon/internal/host"
	"qtenon/internal/report"
	"qtenon/internal/vqa"
)

// Table5 reproduces the pulse-generation comparison: Qtenon's speedup in
// pulse generation time over the baseline FPGA, and the reduction in
// computation requirement (pulses actually synthesized) enabled by
// dynamic incremental compilation plus the SLT.
func Table5(sc Scale) (string, error) {
	nq := sc.HeadlineQubits()
	var sb strings.Builder
	sb.WriteString(header(fmt.Sprintf("Table 5: pulse generation, %d qubits", nq)))
	for _, alg := range algorithms {
		tb := newTable("workload", "baseline pulses", "Qtenon pulses", "reduction %",
			"SLT hit %", "baseline time", "Qtenon time", "speedup")
		for _, k := range vqa.Kinds() {
			base, err := runBaseline(k, nq, alg, sc)
			if err != nil {
				return "", err
			}
			qt, err := runQtenon(k, nq, host.BoomL(), alg, sc)
			if err != nil {
				return "", err
			}
			reduction := 100 * (1 - float64(qt.PulsesGenerated)/float64(base.PulsesGenerated))
			tb.AddRow(k.String(), base.PulsesGenerated, qt.PulsesGenerated,
				fmt.Sprintf("%.1f", reduction),
				fmt.Sprintf("%.1f", 100*qt.SLTHitRate),
				base.Breakdown.PulseGen.String(), qt.Breakdown.PulseGen.String(),
				fmt.Sprintf("%.1f", report.Speedup(base.Breakdown.PulseGen, qt.Breakdown.PulseGen)))
		}
		fmt.Fprintf(&sb, "-- %s --\n%s", alg, tb.String())
	}
	sb.WriteString("paper (GD):   speedup 204.2×/339.0×/647.9×, reduction 96.8%/98.3%/98.9%\n")
	sb.WriteString("paper (SPSA): speedup 23.3×/13.5×/27.8×,   reduction 61.3%/55.7%/72.1%\n")
	return sb.String(), nil
}
