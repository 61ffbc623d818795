package main

import (
	"fmt"
	"time"

	"qtenon/internal/backend"
	"qtenon/internal/circuit"
	"qtenon/internal/metrics"
	"qtenon/internal/par"
	"qtenon/internal/qsim/engine"
	"qtenon/internal/quantum"
	"qtenon/internal/route"
	"qtenon/internal/vqa"
)

// perLayer is the traced run. One recorded full-Qtenon run supplies the
// parameter vectors the optimizer sent and the costs it got back. Until
// the window closes, each repetition then
//
//  1. runs full Qtenon again untraced, for the Evaluate host time the
//     replay is compared with and the optimizer's own time around it;
//  2. runs the decoupled baseline, for its Evaluate host time;
//  3. replays the recorded vectors layer by layer on a fresh replayer and
//     checks it reproduced the recorded costs, the RunResult accounting
//     and the system's metrics snapshot, failing the run otherwise;
//  4. runs each recorded circuit's engine pass at one par worker and at
//     the default, for engine.par_speedup.
//
// Every per-layer host time is a per-evaluation mean of each
// evaluation's fastest time over the repetitions.
func perLayer(wl *workload, seed int64, window time.Duration) *result {
	r := &result{}
	w, err := wl.circuit()
	if err != nil {
		r.attempted++
		r.fail(err)
		return r
	}
	r.attempted++
	rec, err := runMachine(wl, qtenon, w, seed, true)
	if err != nil {
		r.fail(err)
		return r
	}
	if err := checkHistory(rec); err != nil {
		r.fail(err)
		return r
	}
	want, err := checkedReference(wl, seed)
	if err != nil {
		r.fail(err)
		return r
	}
	recDigest := digest(rec.res)
	if want != nil && want[qtenon.name] != recDigest {
		r.fail(fmt.Errorf("recorded run digest %s differs from the reference %s", recDigest, want[qtenon.name]))
		return r
	}
	snap := backend.MetricsOf(rec.p.inner).Snapshot()
	bounds := make([]*circuit.Circuit, len(rec.p.params))
	for i, p := range rec.p.params {
		bounds[i] = w.Circuit.Bind(p)
	}
	evals := float64(len(rec.p.params))

	// Fastest time per evaluation position over the window's identical
	// repeats, as in endToEnd: per layer, for the untraced Evaluate, the
	// optimizer around it, the baseline's Evaluate, and each engine pass.
	var layerMin [numLayers]fastest
	var evalMin, selfMin, baseMin, serialMin, parallelMin fastest
	var last *replayer
	reps := 0
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < window; n++ {
		r.attempted++
		real, err := runMachine(wl, qtenon, w, seed, false)
		if err != nil {
			r.fail(err)
			break
		}
		if d := digest(real.res); d != recDigest {
			r.fail(fmt.Errorf("repeat digest %s differs from the recorded run's %s", d, recDigest))
			break
		}
		r.attempted++
		base, err := runMachine(wl, decoupled, w, seed, false)
		if err != nil {
			r.fail(err)
			break
		}
		r.attempted++
		type pass struct {
			rp               *replayer
			serial, parallel []int64
		}
		ps, err := withDeadline(wl.deadline, wl.name+"-replay", func() (pass, error) {
			rp, err := replay(seed, w, rec, snap)
			if err != nil {
				return pass{}, err
			}
			s, p, err := parPass(bounds, w.NQubits())
			return pass{rp, s, p}, err
		})
		if err != nil {
			r.fail(fmt.Errorf("replay: %w", err))
			break
		}
		last = ps.rp
		reps++
		for l := range layerMin {
			layerMin[l].observe(last.evalNs[l])
		}
		evalMin.observe(real.p.evalNs)
		selfMin.observe([]int64{(real.runTime - real.p.evalSum).Nanoseconds()})
		baseMin.observe(base.p.evalNs)
		serialMin.observe(ps.serial)
		parallelMin.observe(ps.parallel)
	}
	if last == nil {
		return r
	}
	r.printf("replayed %d recorded evaluations of full Qtenon %d times in %.1f s; every replay reproduced the run's costs, accounting and metrics snapshot",
		len(rec.p.params), reps, time.Since(start).Seconds())
	r.printf("host times are each evaluation's fastest over the %d repeats, summed and divided by the evaluation count", reps)

	var layered int64
	for l := range layerMin {
		layered += layerMin[l].sum()
	}
	perEval := func(name string, l layer, note string) {
		r.add(name, "us", float64(layerMin[l].sum())/1e3/evals, note)
	}
	r.add("opt.self_us", "us", float64(selfMin.sum())/1e3/evals, "host time of the optimizer outside Evaluate, per evaluation")
	r.add("baseline.eval_us", "us", float64(baseMin.sum())/1e3/float64(len(baseMin)), "host time of one decoupled-baseline Evaluate")
	perEval("compiler.diff_us", lCompiler, "AppendDiff + ApplyDeltas (Program.Load on the first evaluation)")
	r.add("compiler.deltas", "count", float64(last.deltas)/evals, "q_update deltas per evaluation")
	perEval("pipeline.run_us", lPipeline, "pipeline.Run: q_gen over every program entry")
	r.add("pipeline.cycles", "count", float64(last.cycles)/evals, "simulated pipeline cycles per evaluation")
	r.add("pipeline.generated", "count", float64(last.generated)/evals, "pulses synthesized per evaluation")
	r.add("pipeline.ns_per_cycle", "ns", float64(layerMin[lPipeline].sum())/float64(last.cycles), "host ns per simulated pipeline cycle")
	r.add("slt.hit_rate", "ratio", last.bank.TotalStats().HitRate(), "SLT and QSpace hits over lookups")
	perEval("circuit.bind_us", lBind, "Circuit.BindInto")
	perEval("circuit.schedule_us", lSchedule, "circuit.Duration: the chip's ASAP shot time")
	perEval("route.select_us", lRoute, "Router.SelectWidth")
	perEval("engine.run_us", lEngineRun, fmt.Sprintf("Simulator.Run on the %s engine", last.method))
	perEval("engine.sample_us", lEngineSample, "Simulator.Sample")
	r.add("engine.par_speedup", "ratio", float64(serialMin.sum())/float64(parallelMin.sum()), "engine Run host time at par.SetWorkers(1) over the default")
	perEval("qcc.measure_us", lMeasure, "Cache.WriteMeasure for every shot")
	perEval("tilelink.transfer_us", lTransfer, "TransferReuse + Barrier.MarkRange")
	r.add("tilelink.beats", "count", float64(last.beats)/evals, "bus beats per evaluation")
	perEval("sched.compute_us", lSched, "BatchInterval + PlanBatches + Compute")
	perEval("sim.run_us", lSim, "event engine At + Run")
	r.add("sim.events", "count", float64(last.eventsRun)/evals, "simulated events per evaluation")
	perEval("vqa.cost_us", lCost, "Workload.Cost over the shots")
	r.add("replay.coverage", "ratio", float64(layered)/float64(evalMin.sum()), "replayed layer time over the untraced run's Evaluate time")
	return r
}

// replay runs the recorded vectors through a fresh replayer and checks
// it against the recorded run: every cost bit for bit, then the
// accounting and metrics snapshot (replayer.check).
func replay(seed int64, w *vqa.Workload, rec outcome, snap metrics.Snapshot) (*replayer, error) {
	rp, err := newReplayer(seed, w)
	if err != nil {
		return nil, err
	}
	costs := make([]float64, len(rec.p.params))
	for i, p := range rec.p.params {
		if costs[i], err = rp.evaluate(p); err != nil {
			return nil, fmt.Errorf("evaluation %d: %w", i, err)
		}
	}
	if i := sameCosts(costs, rec.p.costs); i >= 0 {
		return nil, fmt.Errorf("evaluation %d replayed cost %v, the run returned %v", i, costs[i], rec.p.costs[i])
	}
	return rp, rp.check(rec.res, snap)
}

// checkHistory checks that each iteration's History value is the cost
// of that iteration's last evaluation, as both optimizers record it.
func checkHistory(rec outcome) error {
	h := rec.res.History
	n := len(rec.p.costs)
	if len(h) == 0 || n%len(h) != 0 {
		return fmt.Errorf("%d evaluations do not divide into %d iterations", n, len(h))
	}
	per := n / len(h)
	ends := make([]float64, len(h))
	for i := range h {
		ends[i] = rec.p.costs[(i+1)*per-1]
	}
	if !sameHistory(ends, h) {
		return fmt.Errorf("history %v is not the cost of every %d-th evaluation %v", h, per, ends)
	}
	return nil
}

// parPass runs each bound circuit on its routed engine twice, at one par
// worker and at the default width, alternating to share any drift, and
// returns each circuit's two host times.
func parPass(bounds []*circuit.Circuit, width int) (serial, parallel []int64, err error) {
	router := route.Router{DenseLimit: quantum.ExactLimit}
	var sims [route.NumMethods]engine.Simulator
	defer par.SetWorkers(0)
	for _, b := range bounds {
		m, _, err := router.SelectWidth(b, width)
		if err != nil {
			return nil, nil, err
		}
		if sims[m] == nil {
			if sims[m], err = route.NewSimulator(m, b.NQubits); err != nil {
				return nil, nil, err
			}
		}
		for _, workers := range []int{1, 0} {
			par.SetWorkers(workers)
			t0 := time.Now()
			if err := sims[m].Run(b); err != nil {
				return nil, nil, err
			}
			if d := time.Since(t0).Nanoseconds(); workers == 1 {
				serial = append(serial, d)
			} else {
				parallel = append(parallel, d)
			}
		}
	}
	return serial, parallel, nil
}
