package system

import (
	"fmt"
	"testing"

	"qtenon/internal/backend"
	"qtenon/internal/host"
	"qtenon/internal/opt"
	"qtenon/internal/sched"
	"qtenon/internal/vqa"
)

// Exhaustive configuration matrix: every combination of sync mode,
// batching, SLT, incremental compilation, and core must run cleanly and
// respect the global invariants — quantum time invariant, breakdown
// consistency, cost-history invariance (architecture never changes
// physics), and the full configuration dominating every ablation.
func TestConfigurationMatrix(t *testing.T) {
	w, err := vqa.New(vqa.VQE, 8)
	if err != nil {
		t.Fatal(err)
	}
	o := opt.DefaultOptions()
	o.Iterations = 2

	type variant struct {
		name string
		cfg  Config
	}
	var variants []variant
	for _, sync := range []sched.SyncMode{sched.FENCE, sched.FineGrained} {
		for _, batching := range []bool{false, true} {
			for _, slt := range []bool{false, true} {
				for _, incr := range []bool{false, true} {
					cfg := DefaultConfig(host.Rocket())
					cfg.Shots = 100
					cfg.Sync = sync
					cfg.Batching = batching
					cfg.UseSLT = slt
					cfg.Incremental = incr
					variants = append(variants, variant{
						name: fmt.Sprintf("sync=%v batch=%v slt=%v incr=%v", sync, batching, slt, incr),
						cfg:  cfg,
					})
				}
			}
		}
	}

	fullIdx := -1
	for i, v := range variants {
		if v.cfg.Sync == sched.FineGrained && v.cfg.Batching && v.cfg.UseSLT && v.cfg.Incremental {
			fullIdx = i
		}
	}
	var refHistory []float64
	var refQuantum int64
	results := make([]int64, len(variants))
	for i, v := range variants {
		res := runQtenon(t, v.cfg, w, backend.SPSA, o)
		b := res.Breakdown
		if b.Quantum <= 0 || b.Total() < b.Quantum {
			t.Errorf("%s: inconsistent breakdown %v", v.name, b)
		}
		if got := b.Quantum + b.Comm + b.PulseGen + b.HostComp; got != b.Total() {
			t.Errorf("%s: categories do not sum to total", v.name)
		}
		if refHistory == nil {
			refHistory = res.History
			refQuantum = int64(b.Quantum)
		} else {
			for k := range refHistory {
				if res.History[k] != refHistory[k] {
					t.Errorf("%s: cost history diverged at %d", v.name, k)
					break
				}
			}
			if int64(b.Quantum) != refQuantum {
				t.Errorf("%s: quantum time %d != reference %d", v.name, b.Quantum, refQuantum)
			}
		}
		results[i] = int64(b.Total())
	}
	// The full configuration is the fastest to within 1%: batching
	// legitimately trades a slightly longer exposed tail (its final batch
	// is larger) for lower bus and host activity, so a sub-percent win
	// for the unbatched variant on wall-clock is a modeled effect, not a
	// bug.
	for i, total := range results {
		if float64(total) < float64(results[fullIdx])*0.99 {
			t.Errorf("%s (%d) beat the full configuration (%d) by >1%%", variants[i].name, total, results[fullIdx])
		}
	}
}
