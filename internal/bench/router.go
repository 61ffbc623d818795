package bench

import (
	"fmt"
	"strings"

	"qtenon/internal/backend"
	"qtenon/internal/host"
	"qtenon/internal/par"
	"qtenon/internal/report"
	"qtenon/internal/route"
	"qtenon/internal/system"
	"qtenon/internal/vqa"
)

// RouterQubits returns the (dense-window, beyond-dense) register pair
// the router experiment exercises: the small size runs on both engines
// for a like-for-like comparison; the wide size exceeds
// route.DefaultDenseLimit, so the router refuses forced dense on it and
// only the routed stabilizer tableau run completes.
func (s Scale) RouterQubits() (small, wide int) {
	if s.Quick {
		return 10, 26
	}
	return 12, 26
}

// Router demonstrates the simulation-method router (DESIGN.md §12) on
// the Clifford-only Stabilizer workload: within the dense window the
// forced-dense and auto (→ tableau) runs report identical modeled
// timing and shot-noise-level cost agreement; beyond the router's
// 16-qubit dense limit (route.DefaultDenseLimit) forced dense is refused
// and only the routed tableau run completes. The wide row is the "beyond 20 qubits" capability the
// dense-only stack could never produce.
func Router(sc Scale) (string, error) {
	small, wide := sc.RouterQubits()
	cells := []engineCell{
		{small, route.Dense},
		{small, route.Auto},
		{wide, route.Dense},
		{wide, route.Auto},
	}
	return engineRuns(sc,
		fmt.Sprintf("Router: Clifford workload across engines (%dq dense window, %dq beyond)", small, wide),
		"Stabilizer", cells, runStabilizer,
		"the auto rows route Clifford-only circuits to the stabilizer tableau at any width;\n"+
			fmt.Sprintf("the %dq register exceeds the %d-qubit dense window, so only the routed run completes.\n", wide, route.DefaultDenseLimit),
	), nil
}

// engineCell is one run of an engine-capability experiment (Router,
// Sharded): a register width under a requested method, where Auto lets
// the chip's router pick.
type engineCell struct {
	nq     int
	method route.Method
}

// engineRuns runs every cell through run at scale sc, in parallel, and
// renders an engine-capability experiment: the title, one table row per
// cell, one "infeasible" line per cell an engine refused, then the
// closing prose.
// A refused cell is the experiment's point, not a failure: the
// contiguous dense engine is expected to refuse the wide register.
func engineRuns(sc Scale, title, workload string, cells []engineCell,
	run func(system.Config, int, Scale) (report.RunResult, error), closing string) string {
	type row struct {
		res report.RunResult
		err error
	}
	rows := make([]row, len(cells))
	par.Do(len(cells), func(i int) {
		cfg := system.DefaultConfig(host.BoomL())
		cfg.Method = cells[i].method
		rows[i].res, rows[i].err = run(cfg, cells[i].nq, sc)
	})

	var sb strings.Builder
	sb.WriteString(header(title))
	tb := newTable("workload", "requested", "ran", "status", "total", "evals", "final cost")
	for i, r := range rows {
		name, req := fmt.Sprintf("%s-%dq", workload, cells[i].nq), cells[i].method.String()
		if r.err != nil {
			tb.AddRow(name, req, "-", "impossible", "-", "-", "-")
			continue
		}
		final := "-"
		if len(r.res.History) > 0 {
			final = fmt.Sprintf("%.3f", r.res.History[len(r.res.History)-1])
		}
		tb.AddRow(name, req, r.res.Method, "completed",
			r.res.Breakdown.Total().String(), r.res.Evaluations, final)
	}
	sb.WriteString(tb.String())
	for i, r := range rows {
		if r.err != nil {
			fmt.Fprintf(&sb, "infeasible %s-%dq under %s: %v\n", workload, cells[i].nq, cells[i].method, r.err)
		}
	}
	sb.WriteString(closing)
	return sb.String()
}

// runStabilizer executes the Clifford scaling workload on the Qtenon
// system under an explicit method pin, through the shared run cache.
func runStabilizer(cfg system.Config, nq int, sc Scale) (report.RunResult, error) {
	cfg.Shots = sc.Shots()
	o := sc.options()
	return cache.do(qtenonKey(cfg, vqa.Stabilizer, nq, false, o), func() (report.RunResult, error) {
		w, err := vqa.New(vqa.Stabilizer, nq)
		if err != nil {
			return report.RunResult{}, err
		}
		return backend.Run(system.Factory{Cfg: cfg}, w, backend.GD, o)
	})
}
