package bench

import (
	"fmt"

	"qtenon/internal/backend"
	"qtenon/internal/report"
	"qtenon/internal/route"
	"qtenon/internal/system"
	"qtenon/internal/vqa"
)

// ShardedQubits returns the (contiguous-window, beyond-contiguous)
// register pair the sharded experiment exercises: the small size runs on
// both dense engines for a like-for-like comparison; the wide size
// exceeds the router's contiguous window, so forced-dense must refuse it
// and only the sharded engine keeps the run exact.
func (s Scale) ShardedQubits() (small, wide int) {
	if s.Quick {
		return 10, 18
	}
	return 12, 24
}

// ShardedIterations caps the optimizer for this experiment: the wide
// register sweeps 2^24 amplitudes per gate, so the full scale trims the
// paper's 10 iterations to keep a single-host regeneration in seconds
// per point. Convergence is not the point here — capability and method
// reporting are.
func (s Scale) ShardedIterations() int {
	if s.Quick {
		return 2
	}
	return 3
}

// Sharded demonstrates the sharded dense statevector (DESIGN.md §13) on
// a generic (non-Clifford) VQE workload: within the contiguous window
// the forced-dense and auto runs agree; beyond it the contiguous engine
// is impossible — the router refuses a forced dense — while the auto run
// routes to the sharded engine and completes exactly. This is the
// "beyond 20 qubits" capability for circuits the tableau cannot touch.
func Sharded(sc Scale) (string, error) {
	small, wide := sc.ShardedQubits()
	cells := []engineCell{
		{small, route.Dense},
		{small, route.Auto},
		{wide, route.Dense},
		{wide, route.Auto},
		{wide, route.Sharded},
	}
	return engineRuns(sc,
		fmt.Sprintf("Sharded statevector: generic VQE across engines (%dq contiguous window, %dq beyond)", small, wide),
		"VQE", cells, runShardedVQE,
		"the VQE ansatz is non-Clifford, so the tableau never applies; past the contiguous\n"+
			fmt.Sprintf("window the auto rows route to the sharded engine (exact to %d qubits, bit-for-bit\n", route.DefaultShardedLimit)+
			"dense-equivalent), where a forced contiguous dense run is refused.\n",
	), nil
}

// runShardedVQE executes the generic VQE workload under an explicit
// method pin with the experiment's capped iteration count, through the
// shared run cache.
func runShardedVQE(cfg system.Config, nq int, sc Scale) (report.RunResult, error) {
	cfg.Shots = sc.Shots()
	o := sc.options()
	o.Iterations = sc.ShardedIterations()
	return cache.do(qtenonKey(cfg, vqa.VQE, nq, true, o), func() (report.RunResult, error) {
		w, err := vqa.New(vqa.VQE, nq)
		if err != nil {
			return report.RunResult{}, err
		}
		return backend.Run(system.Factory{Cfg: cfg}, w, backend.SPSA, o)
	})
}
