package bench

import (
	"fmt"
	"slices"
	"strings"

	"qtenon/internal/host"
	"qtenon/internal/report"
	"qtenon/internal/route"
	"qtenon/internal/vqa"
)

// SweepRow is one point of the Figure 11/12 speedup sweep.
type SweepRow struct {
	Workload  vqa.Kind
	Qubits    int
	Core      string
	Classical float64 // classical-execution-time speedup over baseline
	EndToEnd  float64 // end-to-end speedup over baseline
	Method    string  // engine the Qtenon run executed on
}

// Figure11 reproduces the GD sweep: classical-execution-time speedup and
// end-to-end speedup of Qtenon (Rocket and Boom-L) over the decoupled
// baseline, for 8–64 qubits across the three workloads.
func Figure11(sc Scale) (string, error) {
	rows, err := SweepRows(sc, false)
	if err != nil {
		return "", err
	}
	return formatSweep(rows, false), nil
}

// Figure12 is the same sweep under SPSA.
func Figure12(sc Scale) (string, error) {
	rows, err := SweepRows(sc, true)
	if err != nil {
		return "", err
	}
	return formatSweep(rows, true), nil
}

// sweepScale returns the scale one sweep point runs at. Points wider
// than the dense window run on the product surrogate: the sweeps
// measure simulated time, and exact 2^24-amplitude runs would take
// hours. Points past the sharded window already route to product, so
// they stay on Auto and keep their run-cache keys. A forced -method
// always wins.
func sweepScale(sc Scale, nq int) Scale {
	if sc.Method == route.Auto && nq > route.DefaultDenseLimit && nq <= route.DefaultShardedLimit {
		sc.Method = route.Product
	}
	return sc
}

// SweepRows computes the Figure 11/12 data points. The (workload ×
// qubit-count) grid points are independent full optimizations, so they
// fan out across the worker pool; rows are assembled by grid index, so
// the output order matches the serial sweep exactly.
func SweepRows(sc Scale, spsa bool) ([]SweepRow, error) {
	cores := []host.Core{host.Rocket(), host.BoomL()}
	type point struct {
		k  vqa.Kind
		nq int
	}
	var points []point
	for _, k := range vqa.Kinds() {
		for _, nq := range sc.SweepQubits() {
			points = append(points, point{k, nq})
		}
	}
	perPoint := make([][]SweepRow, len(points))
	err := forEachPoint(len(points), func(i int) error {
		pt := points[i]
		psc := sweepScale(sc, pt.nq)
		base, err := runBaseline(pt.k, pt.nq, spsa, psc)
		if err != nil {
			return err
		}
		for _, core := range cores {
			qt, err := runQtenon(pt.k, pt.nq, core, spsa, psc)
			if err != nil {
				return err
			}
			perPoint[i] = append(perPoint[i], SweepRow{
				Workload:  pt.k,
				Qubits:    pt.nq,
				Core:      core.Name,
				Classical: report.Speedup(base.Breakdown.Classical(), qt.Breakdown.Classical()),
				EndToEnd:  report.Speedup(base.Breakdown.Total(), qt.Breakdown.Total()),
				Method:    qt.Method,
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var rows []SweepRow
	for _, pr := range perPoint {
		rows = append(rows, pr...)
	}
	return rows, nil
}

// SweepCSV renders the sweep as CSV for plotting.
func SweepCSV(rows []SweepRow) string {
	var sb strings.Builder
	sb.WriteString("workload,qubits,core,classical_speedup,end_to_end_speedup\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%s,%d,%s,%.4f,%.4f\n", r.Workload, r.Qubits, r.Core, r.Classical, r.EndToEnd)
	}
	return sb.String()
}

func formatSweep(rows []SweepRow, spsa bool) string {
	var sb strings.Builder
	figure := "Figure 11 (GD)"
	paperNote := "paper @64q end-to-end: QAOA 14.7×, VQE 11.7×, QNN 6.9×; classical avg: 354×/376×/222×"
	if spsa {
		figure = "Figure 12 (SPSA)"
		paperNote = "paper @64q end-to-end: QAOA 14.9×, VQE 11.5×, QNN 6.9×; classical avg: 167×/132×/125×"
	}
	sb.WriteString(header(figure + ": speedup over the decoupled baseline"))
	tb := newTable("workload", "qubits", "core", "classical ×", "end-to-end ×")
	sums := map[vqa.Kind]float64{}
	counts := map[vqa.Kind]int{}
	var wide []string // engines that ran past the dense window
	for _, r := range rows {
		tb.AddRow(r.Workload.String(), r.Qubits, r.Core,
			fmt.Sprintf("%.1f", r.Classical), fmt.Sprintf("%.2f", r.EndToEnd))
		sums[r.Workload] += r.Classical
		counts[r.Workload]++
		if r.Qubits > route.DefaultDenseLimit && !slices.Contains(wide, r.Method) {
			wide = append(wide, r.Method)
		}
	}
	sb.WriteString(tb.String())
	if len(wide) > 0 {
		fmt.Fprintf(&sb, "engine above %d qubits: %s (-exp sharded runs 24q exactly)\n", route.DefaultDenseLimit, strings.Join(wide, ", "))
	}
	for _, k := range vqa.Kinds() {
		if counts[k] > 0 {
			fmt.Fprintf(&sb, "average classical speedup %s: %.1f×\n", k, sums[k]/float64(counts[k]))
		}
	}
	sb.WriteString(paperNote + "\n")
	return sb.String()
}
