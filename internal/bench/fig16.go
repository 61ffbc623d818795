package bench

import (
	"fmt"
	"strings"

	"qtenon/internal/host"
	"qtenon/internal/report"
	"qtenon/internal/sched"
	"qtenon/internal/system"
	"qtenon/internal/vqa"
)

// Figure16 reproduces the software-optimization ablations:
// (a) memory consistency — quantum-host transmission time under the
// RISC-V default FENCE synchronization vs Qtenon's fine-grained barrier;
// (b) instruction scheduling — host computation time with and without
// batched transmission (Algorithm 1).
func Figure16(sc Scale) (string, error) {
	nq := sc.HeadlineQubits()
	var sb strings.Builder
	sb.WriteString(header(fmt.Sprintf("Figure 16: software optimizations, %d qubits", nq)))

	sb.WriteString("(a) synchronization: exposed quantum-host transmission time\n")
	for _, alg := range algorithms {
		tb := newTable("workload", "FENCE (RISC-V default)", "fine-grained", "speedup")
		for _, k := range vqa.Kinds() {
			fence := system.DefaultConfig(host.BoomL())
			fence.Sync = sched.FENCE
			fres, err := runQtenonCfg(fence, k, nq, alg, sc)
			if err != nil {
				return "", err
			}
			fine, err := runQtenonCfg(system.DefaultConfig(host.BoomL()), k, nq, alg, sc)
			if err != nil {
				return "", err
			}
			fenceComm := fres.Breakdown.Comm + fres.Breakdown.HostComp
			fineComm := fine.Breakdown.Comm + fine.Breakdown.HostComp
			tb.AddRow(k.String(), fenceComm.String(), fineComm.String(),
				fmt.Sprintf("%.1f", report.Speedup(fenceComm, fineComm)))
		}
		fmt.Fprintf(&sb, "-- %s --\n%s", alg, tb.String())
	}
	sb.WriteString("paper (a): QAOA speedups 2.7× (GD) / 2.5× (SPSA); larger for VQE/QNN under GD\n\n")

	sb.WriteString("(b) scheduling: host computation time (activity) with/without batching\n")
	for _, alg := range algorithms {
		tb := newTable("workload", "w/o schedule", "w/ schedule", "speedup")
		for _, k := range vqa.Kinds() {
			unbatched := system.DefaultConfig(host.BoomL())
			unbatched.Batching = false
			ures, err := runQtenonCfg(unbatched, k, nq, alg, sc)
			if err != nil {
				return "", err
			}
			bres, err := runQtenonCfg(system.DefaultConfig(host.BoomL()), k, nq, alg, sc)
			if err != nil {
				return "", err
			}
			tb.AddRow(k.String(), ures.HostActivity.String(), bres.HostActivity.String(),
				fmt.Sprintf("%.1f", report.Speedup(ures.HostActivity, bres.HostActivity)))
		}
		fmt.Fprintf(&sb, "-- %s --\n%s", alg, tb.String())
	}
	sb.WriteString("paper (b): GD 4.4×/10.1×/3.4×; SPSA 6.6×/3.5×/2.6× (QAOA/VQE/QNN)\n")
	return sb.String(), nil
}
