package bench

import (
	"fmt"
	"strings"

	"qtenon/internal/host"
	"qtenon/internal/report"
	"qtenon/internal/vqa"
)

// Figure15 reproduces the host execution time comparison: baseline vs
// Qtenon with the Boom and Rocket cores, per workload and optimizer.
// Host time on Qtenon is host activity (including work overlapped with
// quantum execution), matching the figure's per-component profiling.
func Figure15(sc Scale) (string, error) {
	nq := sc.HeadlineQubits()
	var sb strings.Builder
	sb.WriteString(header(fmt.Sprintf("Figure 15: host execution time, %d qubits", nq)))

	// The (optimizer × workload) cells are independent runs: compute
	// them across the worker pool, then render in the fixed order.
	type cell struct {
		base, boom, rocket report.RunResult
	}
	kinds := vqa.Kinds()
	cells := make([]cell, len(algorithms)*len(kinds))
	err := forEachPoint(len(cells), func(i int) error {
		alg := algorithms[i/len(kinds)]
		k := kinds[i%len(kinds)]
		var err error
		if cells[i].base, err = runBaseline(k, nq, alg, sc); err != nil {
			return err
		}
		if cells[i].boom, err = runQtenon(k, nq, host.BoomL(), alg, sc); err != nil {
			return err
		}
		cells[i].rocket, err = runQtenon(k, nq, host.Rocket(), alg, sc)
		return err
	})
	if err != nil {
		return "", err
	}
	for oi, alg := range algorithms {
		tb := newTable("workload", "baseline", "Qtenon-Boom", "Qtenon-Rocket", "speedup (Boom)")
		for ki, k := range kinds {
			c := cells[oi*len(kinds)+ki]
			tb.AddRow(k.String(), c.base.Breakdown.HostComp.String(),
				c.boom.HostActivity.String(), c.rocket.HostActivity.String(),
				fmt.Sprintf("%.0f", report.Speedup(c.base.Breakdown.HostComp, c.boom.HostActivity)))
		}
		fmt.Fprintf(&sb, "-- %s --\n%s", alg, tb.String())
	}
	sb.WriteString("paper: Boom-core speedups GD 308.7×/357.9×/175.0×, SPSA 461.4×/123.8×/132.8×;\n")
	sb.WriteString("       the two RISC-V cores are nearly identical.\n")
	return sb.String(), nil
}
