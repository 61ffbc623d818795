package main

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"time"

	"qtenon/internal/report"
	"qtenon/internal/vqa"
)

// endToEnd measures the workload untraced for the given window.
//
// One warm-up run set fixes the digests every measured run must repeat
// bit for bit and, at the default seed, is checked against
// reference.json. The measured loop then times set-up (vqa.New plus
// every timed machine's Factory.New, from a freshly collected heap) and
// one run set, until the window closes.
//
// Host times are the fastest seen over the window's identical repeats:
// on a shared host the share of the CPU a process gets varies by tens of
// percent from second to second, and the fastest of identical repeats
// is the program's own cost with most of that contention removed.
func endToEnd(wl *workload, seed int64, window time.Duration) *result {
	r := &result{}
	w, err := wl.circuit()
	if err != nil {
		r.attempted++
		r.fail(err)
		return r
	}
	want, err := checkedReference(wl, seed)
	if err != nil {
		r.attempted++
		r.fail(err)
		return r
	}
	first, err := runSet(r, wl, w, seed)
	if err != nil {
		return r
	}
	digests := map[string]string{}
	for i, m := range wl.timed {
		digests[m.name] = digest(first[i].res)
	}
	full := first[wl.primary()].res
	base, timedBase := full, false
	for i, m := range wl.timed {
		if m.name == decoupled.name {
			base, timedBase = first[i].res, true
		}
	}
	if !timedBase {
		r.attempted++
		o, err := runMachine(wl, decoupled, w, seed, false)
		if err != nil {
			r.fail(err)
			return r
		}
		if !sameHistory(o.res.History, full.History) {
			r.fail(fmt.Errorf("baseline cost history differs from full Qtenon's"))
		}
		base = o.res
		digests[decoupled.name] = digest(base)
	}
	for name, d := range digests {
		if want != nil && want[name] != d {
			r.fail(fmt.Errorf("%s digest %s differs from the reference %s at seed %d", name, d, want[name], seed))
		}
	}

	// Every measured run set repeats the first bit for bit, so evaluation
	// i of one repeat did the same work as evaluation i of every other:
	// the fastest time seen for each position is that evaluation's cost
	// under the least host contention, and so is the fastest optimizer
	// time around them.
	evalMin := make([]fastest, len(wl.timed))
	selfMin := make([]fastest, len(wl.timed))
	var rawRunS, peaks []float64
	var allocBytes, evals int64
	var setups []float64
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < window; n++ {
		d, err := timeSetup(wl, seed)
		if err != nil {
			r.attempted++
			r.fail(fmt.Errorf("set-up: %w", err))
			break
		}
		setups = append(setups, d.Seconds())
		set, err := runSet(r, wl, w, seed)
		if errors.Is(err, errOverrun) {
			break
		}
		if err != nil {
			continue
		}
		var total time.Duration
		var peak uint64
		for i, o := range set {
			if d := digest(o.res); d != digests[wl.timed[i].name] {
				r.fail(fmt.Errorf("%s repeat digest %s differs from this seed's first run %s", wl.timed[i].name, d, digests[wl.timed[i].name]))
				continue
			}
			evalMin[i].observe(o.p.evalNs)
			selfMin[i].observe([]int64{(o.runTime - o.p.evalSum).Nanoseconds()})
			total += o.runTime
			peak = max(peak, o.p.peak)
		}
		q := set[wl.primary()].p
		allocBytes += int64(q.allocs)
		evals += int64(len(q.evalNs))
		rawRunS = append(rawRunS, total.Seconds())
		peaks = append(peaks, float64(peak)/(1<<20))
	}
	if len(rawRunS) == 0 {
		return r
	}

	r.printf("measured %d run sets of %d machine(s) in %.1f s; raw median run time %.4f s (host contention included)",
		len(rawRunS), len(wl.timed), time.Since(start).Seconds(), median(rawRunS))
	reportAccuracy(r, wl, first, base)

	var runNs int64
	for i := range wl.timed {
		runNs += evalMin[i].sum() + selfMin[i].sum()
	}
	costs := make([]float64, len(evalMin[wl.primary()]))
	for i, ns := range evalMin[wl.primary()] {
		costs[i] = float64(ns) / 1e3
	}
	sort.Float64s(costs)
	r.add("run_s", "s", float64(runNs)/1e9, fmt.Sprintf("one run on %s: each evaluation's and the optimizer's fastest time over %d repeats, summed", machineNames(wl.timed), len(rawRunS)))
	r.add("eval_us_p50", "us", median(costs), fmt.Sprintf("median over the run's %d full-Qtenon evaluations of each one's fastest time", len(costs)))
	if v, pct, beyond, ok := tail(costs); ok {
		r.add("eval_us_tail", "us", v, fmt.Sprintf("p%g of the same %d evaluations, %d beyond it", pct, len(costs), beyond))
	} else {
		r.printf("eval_us_tail unavailable: %d evaluations leave fewer than ten beyond the median", len(costs))
	}
	r.add("alloc_kb_per_eval", "KiB", float64(allocBytes)/float64(evals)/1024, "heap bytes allocated during full-Qtenon runs after set-up, per evaluation")
	r.add("peak_heap_mb", "MiB", median(peaks), "median over runs of the peak live heap at evaluation boundaries")
	r.add("setup_s", "s", slices.Min(setups), fmt.Sprintf("fastest of %d, one before each run set: vqa.New plus Factory.New of %s", len(setups), machineNames(wl.timed)))
	r.add("sim_ms", "ms", full.Breakdown.Total().Milliseconds(), "simulated Breakdown.Total() of full Qtenon")
	r.add("sim_speedup", "ratio", report.Speedup(base.Breakdown.Total(), full.Breakdown.Total()), "simulated baseline total over full-Qtenon total")
	return r
}

// timeSetup times vqa.New plus every timed machine's Factory.New. An
// untimed set-up first warms the allocator and a collection frees it, so
// the timed one reuses heap spans the process already holds, as every
// set-up inside the measured loop does, instead of timing the host's
// page faults.
func timeSetup(wl *workload, seed int64) (time.Duration, error) {
	if _, err := setup(wl, seed); err != nil {
		return 0, err
	}
	runtime.GC()
	return setup(wl, seed)
}

func setup(wl *workload, seed int64) (time.Duration, error) {
	t0 := time.Now()
	w, err := wl.circuit()
	if err != nil {
		return 0, err
	}
	for _, m := range wl.timed {
		if _, err := m.factory(seed).New(w); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// runSet drives every timed machine once, in order, and checks that they
// agree on the cost history. Each machine run counts as one attempt.
func runSet(r *result, wl *workload, w *vqa.Workload, seed int64) ([]outcome, error) {
	set := make([]outcome, 0, len(wl.timed))
	for _, m := range wl.timed {
		r.attempted++
		o, err := runMachine(wl, m, w, seed, false)
		if err != nil {
			r.fail(err)
			return nil, err
		}
		set = append(set, o)
	}
	for i := 1; i < len(set); i++ {
		if !sameHistory(set[i].res.History, set[0].res.History) {
			err := fmt.Errorf("%s cost history differs from %s's", wl.timed[i].name, wl.timed[0].name)
			r.fail(err)
			return nil, err
		}
	}
	return set, nil
}

// checkedReference returns the reference digests the run must match:
// those in reference.json at the default seed, none at other seeds
// (there, repeats must still agree with the invocation's first run).
func checkedReference(wl *workload, seed int64) (map[string]string, error) {
	if seed != defaultSeed {
		return nil, nil
	}
	want, err := referenceDigests(wl.name)
	if err != nil {
		return nil, err
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("reference.json has no digests for %s", wl.name)
	}
	return want, nil
}

// reportAccuracy prints the simulated totals beside the paper's, where
// the paper publishes them.
func reportAccuracy(r *result, wl *workload, first []outcome, base report.RunResult) {
	if wl.paperMs == nil {
		r.printf("simulated totals: full Qtenon %.4f ms, baseline %.4f ms; the paper publishes no reference for this workload, so they are unvalidated",
			first[wl.primary()].res.Breakdown.Total().Milliseconds(), base.Breakdown.Total().Milliseconds())
		return
	}
	r.printf("simulated totals against the paper (Figure 13):")
	for i, m := range wl.timed {
		got := first[i].res.Breakdown.Total().Milliseconds()
		r.printf("  %-10s %9.4f ms   paper %6.1f ms   relative error %+.1f%%", m.name, got, wl.paperMs[i], 100*(got-wl.paperMs[i])/wl.paperMs[i])
	}
}

func machineNames(ms []machine) string {
	s := ""
	for i, m := range ms {
		if i > 0 {
			s += "+"
		}
		s += m.name
	}
	return s
}
