package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"qtenon/internal/circuit"
	"qtenon/internal/compiler"
	"qtenon/internal/host"
	"qtenon/internal/metrics"
	"qtenon/internal/pipeline"
	"qtenon/internal/qcc"
	"qtenon/internal/qsim/engine"
	"qtenon/internal/quantum"
	"qtenon/internal/report"
	"qtenon/internal/rng"
	"qtenon/internal/route"
	"qtenon/internal/sched"
	"qtenon/internal/sim"
	"qtenon/internal/slt"
	"qtenon/internal/system"
	"qtenon/internal/tilelink"
	"qtenon/internal/trace"
	"qtenon/internal/vqa"
)

// layer indexes the replay's per-layer host-time accumulators.
type layer int

const (
	lCompiler     layer = iota // Program.AppendDiff + compiler.ApplyDeltas (Program.Load on the first evaluation)
	lPipeline                  // pipeline.Pipeline.Run (q_gen: SLT lookups and pulse synthesis inside)
	lBind                      // circuit.Circuit.BindInto
	lSchedule                  // circuit.Duration (the chip's ASAP shot time)
	lRoute                     // route.Router.SelectWidth
	lEngineRun                 // engine.Simulator.Run
	lEngineSample              // engine.Simulator.Sample
	lSched                     // sched.BatchInterval + sched.PlanBatches + sched.Compute
	lMeasure                   // qcc.Cache.WriteMeasure for every shot
	lTransfer                  // tilelink.TransferReuse + tilelink.Barrier.MarkRange
	lSim                       // sim.Engine At + Run
	lCost                      // vqa.Workload.Cost
	numLayers
)

var layerNames = [numLayers]string{
	lCompiler:     "compiler.diff_us",
	lPipeline:     "pipeline.run_us",
	lBind:         "circuit.bind_us",
	lSchedule:     "circuit.schedule_us",
	lRoute:        "route.select_us",
	lEngineRun:    "engine.run_us",
	lEngineSample: "engine.sample_us",
	lSched:        "sched.compute_us",
	lMeasure:      "qcc.measure_us",
	lTransfer:     "tilelink.transfer_us",
	lSim:          "sim.run_us",
	lCost:         "vqa.cost_us",
}

// replayer is full Qtenon rebuilt from its layers' public constructors
// exactly as system.New wires them, with evaluate mirroring
// System.Evaluate call for call. Each layer call is timed; everything
// the system accumulates is accumulated too, so that the replay can be
// checked against the run it reproduces.
type replayer struct {
	cfg  system.Config
	w    *vqa.Workload
	exec *circuit.Circuit

	cacheCfg   qcc.Config
	cache      *qcc.Cache
	bank       *slt.Bank
	pipe       *pipeline.Pipeline
	bus        *tilelink.Bus
	rbq        *tilelink.RBQ
	barrier    *tilelink.Barrier
	prog       *compiler.Program
	controller sim.Clock
	events     sim.Engine
	tracer     *trace.Recorder // nil, as in an untraced System

	// The chip: quantum.Chip.Execute's steps, called one by one.
	timing circuit.Timing
	router route.Router
	rng    *rand.Rand
	sims   [route.NumMethods]engine.Simulator

	cur            []float64
	loaded         bool
	now            sim.Time
	measureCursor  int
	hostResultBase uint64
	deltaScratch   []compiler.Delta
	beatScratch    []uint64
	dataScratch    []uint64
	boundScratch   *circuit.Circuit

	breakdown    report.Breakdown
	comm         report.CommBreakdown
	instrs       int
	evals        int
	pulsesGen    int64
	hostActivity sim.Time
	commActivity sim.Time
	method       route.Method

	reg *metrics.Registry
	m   sysInstruments

	// Per-layer host time: the running sum, and each evaluation's share.
	ns        [numLayers]int64
	evalNs    [numLayers][]int64
	deltas    int64
	cycles    int64 // simulated pipeline cycles
	generated int64 // pulses synthesized
	beats     int64
	eventsRun uint64
}

// sysInstruments mirrors the handles System resolves in its registry.
type sysInstruments struct {
	qSet, qUpdate, qGen, qRun, qAcquire *metrics.Counter
	hostPrep, hostPost                  *metrics.Timer
	evaluations, shots                  *metrics.Counter
	shotTime                            *metrics.Timer
	methods                             [route.NumMethods]*metrics.Counter
}

func newReplayer(seed int64, w *vqa.Workload) (*replayer, error) {
	cfg := qtenonConfig(seed)
	if !cfg.Incremental || cfg.Coupling != nil || cfg.Noise.Enabled() || cfg.Method != route.Auto {
		return nil, fmt.Errorf("replay: the configuration leaves the incremental, all-to-all, ideal, auto-routed path")
	}
	exec := w.Circuit
	cacheCfg := qcc.DefaultConfig(exec.NQubits)
	cache, err := qcc.NewCache(cacheCfg)
	if err != nil {
		return nil, err
	}
	bank := slt.NewBank(w.NQubits(), cacheCfg.PulseEntries)
	pipe, err := pipeline.New(pipeline.Config{
		PGUs:       cfg.PGUs,
		PGULatency: cfg.PGULatency,
		UseSLT:     cfg.UseSLT,
		Timing:     circuit.DefaultTiming(),
	}, cache, bank)
	if err != nil {
		return nil, err
	}
	busCfg := cfg.Bus
	busCfg.Seed = cfg.Seed
	bus, err := tilelink.NewBus(busCfg)
	if err != nil {
		return nil, err
	}
	prog, err := compiler.Compile(exec, cacheCfg)
	if err != nil {
		return nil, err
	}
	r := &replayer{
		cfg:            cfg,
		w:              w,
		exec:           exec,
		cacheCfg:       cacheCfg,
		cache:          cache,
		bank:           bank,
		pipe:           pipe,
		bus:            bus,
		rbq:            tilelink.NewRBQ(busCfg.Tags, 8, 1<<20),
		barrier:        tilelink.NewBarrier(),
		prog:           prog,
		controller:     sim.NewClock(cfg.ControllerHz),
		timing:         circuit.DefaultTiming(),
		router:         route.Router{DenseLimit: quantum.ExactLimit},
		rng:            rng.New(cfg.Seed),
		hostResultBase: 0x9000_0000,
		reg:            metrics.NewRegistry(),
	}
	r.events.Instrument(r.reg)
	r.bus.Instrument(r.reg)
	r.rbq.Instrument(r.reg)
	r.barrier.Instrument(r.reg)
	r.pipe.Instrument(r.reg)
	r.m = sysInstruments{
		qSet:        r.reg.Counter("controller.instr.q_set"),
		qUpdate:     r.reg.Counter("controller.instr.q_update"),
		qGen:        r.reg.Counter("controller.instr.q_gen"),
		qRun:        r.reg.Counter("controller.instr.q_run"),
		qAcquire:    r.reg.Counter("controller.instr.q_acquire"),
		hostPrep:    r.reg.Timer("host.prep_ps"),
		hostPost:    r.reg.Timer("host.post_ps"),
		evaluations: r.reg.Counter("system.evaluations"),
		shots:       r.reg.Counter("quantum.shots"),
		shotTime:    r.reg.Timer("quantum.shot_time_ps"),
	}
	for m := route.Method(0); m < route.NumMethods; m++ {
		r.m.methods[m] = r.reg.Counter("quantum.method." + m.String())
	}
	return r, nil
}

// lap charges the host time since t to layer l and returns the new mark.
func (r *replayer) lap(l layer, t time.Time) time.Time {
	now := time.Now()
	r.ns[l] += now.Sub(t).Nanoseconds()
	return now
}

// transferCycles mirrors System.transferCycles: a zero-payload write of
// beats beats through the bus and RBQ.
func (r *replayer) transferCycles(beats int) (int64, error) {
	if beats <= 0 {
		return 0, nil
	}
	if cap(r.beatScratch) < beats {
		r.beatScratch = make([]uint64, beats)
	}
	data := r.beatScratch[:beats]
	for i := range data {
		data[i] = 0
	}
	res, err := tilelink.TransferReuse(r.bus, r.rbq, r.hostResultBase, beats, true, data, r.dataScratch[:0])
	r.dataScratch = res.Data
	if err != nil {
		return 0, err
	}
	r.beats += int64(beats)
	return res.Cycles, nil
}

// evaluate mirrors System.Evaluate on full Qtenon (incremental
// compilation, no coupling map, ideal chip), timing each layer call.
func (r *replayer) evaluate(params []float64) (float64, error) {
	r.evals++
	r.m.evaluations.Inc()
	nq := r.exec.NQubits
	var hostPrep, commPrep sim.Time
	before := r.ns

	t := time.Now()
	if !r.loaded {
		// q_set: the one-time program upload.
		if err := r.prog.Load(r.cache, params); err != nil {
			return 0, err
		}
		t = r.lap(lCompiler, t)
		bytes := r.prog.TotalEntries() * 9
		cycles, err := r.transferCycles((bytes + r.cfg.Bus.BeatBytes - 1) / r.cfg.Bus.BeatBytes)
		if err != nil {
			return 0, err
		}
		t = r.lap(lTransfer, t)
		r.instrs++
		r.m.qSet.Inc()
		qt := r.controller.Cycles(cycles)
		r.comm.QSet += qt
		r.cur = append([]float64(nil), params...)
		r.loaded = true
		commPrep += qt
		hostPrep += r.cfg.Core.Time(r.cfg.Costs.IncrementalCompile(len(params)))
	} else {
		deltas, err := r.prog.AppendDiff(r.deltaScratch[:0], r.cur, params)
		r.deltaScratch = deltas
		if err != nil {
			return 0, err
		}
		hostPrep += r.cfg.Core.Time(r.cfg.Costs.IncrementalCompile(len(deltas)))
		if err := compiler.ApplyDeltas(r.cache, deltas); err != nil {
			return 0, err
		}
		qt := sim.Time(len(deltas)) * r.controller.Cycles(host.RoCCIssueCycles)
		commPrep += qt
		r.comm.QUpdate += qt
		r.instrs += len(deltas)
		r.m.qUpdate.Add(int64(len(deltas)))
		r.cur = append(r.cur[:0], params...)
		r.deltas += int64(len(deltas))
		t = r.lap(lCompiler, t)
	}

	pipeRes, err := r.pipe.Run(r.prog.Items)
	if err != nil {
		return 0, err
	}
	t = r.lap(lPipeline, t)
	r.instrs++
	r.m.qGen.Inc()
	r.pulsesGen += int64(pipeRes.Generated)
	r.cycles += pipeRes.Cycles
	r.generated += int64(pipeRes.Generated)
	pulsePrep := r.controller.Cycles(pipeRes.Cycles)

	bound := r.exec.BindInto(r.boundScratch, params)
	r.boundScratch = bound
	t = r.lap(lBind, t)
	shotTime, outcomes, err := r.execute(bound, &t)
	if err != nil {
		return 0, err
	}
	r.instrs += 2
	r.m.qRun.Inc()
	r.m.qAcquire.Inc()
	r.m.shots.Add(int64(r.cfg.Shots))
	r.m.shotTime.Observe(int64(shotTime))
	r.m.methods[r.method].Inc()

	k := 1
	if r.cfg.Batching {
		k = sched.BatchInterval(r.cfg.Bus.BeatBytes*8, nq)
	}
	batches := sched.PlanBatches(r.cfg.Shots, k)
	t = r.lap(lSched, t)

	wordsPerShot := (nq + 63) / 64
	for i, o := range outcomes {
		idx := (r.measureCursor + i*wordsPerShot) % r.cacheCfg.MeasureEntries
		if err := r.cache.WriteMeasure(idx, o, qcc.HardwareAccess); err != nil {
			return 0, err
		}
	}
	r.measureCursor = (r.measureCursor + len(outcomes)*wordsPerShot) % r.cacheCfg.MeasureEntries
	t = r.lap(lMeasure, t)

	batchBytes := k * wordsPerShot * 8
	cycles, err := r.transferCycles((batchBytes + r.cfg.Bus.BeatBytes - 1) / r.cfg.Bus.BeatBytes)
	if err != nil {
		return 0, err
	}
	transferPerBatch := r.controller.Cycles(cycles)
	r.barrier.MarkRange(r.hostResultBase, len(batches), uint64(batchBytes))
	t = r.lap(lTransfer, t)

	tl := sched.Compute(sched.TimelineInput{
		Mode:             r.cfg.Sync,
		HostPrep:         hostPrep,
		CommPrep:         commPrep,
		PulsePrep:        pulsePrep,
		ShotTime:         shotTime + r.cfg.ADI.RoundTrip(),
		Batches:          batches,
		TransferPerBatch: transferPerBatch,
		HostPerShot:      r.cfg.Core.Time(r.cfg.Costs.PostProcess(1, nq)),
		HostPerBatch:     r.cfg.Core.Time(r.cfg.Costs.HostPerDelivery),
		HostTail:         r.cfg.Core.Time(r.cfg.Costs.ParamUpdate(r.w.NumParams())),
	})
	r.breakdown.Quantum += tl.Quantum
	r.breakdown.PulseGen += tl.ExposedPulse
	r.breakdown.HostComp += tl.ExposedHost
	r.breakdown.Comm += tl.ExposedComm
	r.hostActivity += tl.HostActivity
	r.commActivity += tl.CommActivity
	r.m.hostPrep.Observe(int64(hostPrep))
	tail := tl.Total - (hostPrep + commPrep + pulsePrep + tl.Quantum)
	if tail > 0 {
		r.m.hostPost.Observe(int64(tail))
	}
	t = r.lap(lSched, t)

	executed := r.events.Executed()
	t0 := r.now
	qStart := t0 + hostPrep + commPrep + pulsePrep
	qEnd := qStart + tl.Quantum
	r.events.At(t0, func() { r.tracer.Add("host", "prep", t0, t0+hostPrep) })
	r.events.At(t0+hostPrep, func() {
		r.tracer.Add("rocc/bus", "q_update/q_set", t0+hostPrep, t0+hostPrep+commPrep)
	})
	r.events.At(t0+hostPrep+commPrep, func() { r.tracer.Add("pipeline", "q_gen", t0+hostPrep+commPrep, qStart) })
	r.events.At(qStart, func() { r.tracer.Add("quantum", "q_run", qStart, qEnd) })
	end := t0 + tl.Total
	if tail > 0 {
		r.events.At(qEnd, func() { r.tracer.Add("host", "post+update", qEnd, qEnd+tail) })
	}
	if end < qEnd {
		end = qEnd
	}
	r.events.At(end, func() {})
	r.now = r.events.Run()
	r.eventsRun += r.events.Executed() - executed
	t = r.lap(lSim, t)
	if tail := tl.ExposedComm - commPrep; tail > 0 {
		r.comm.QAcquire += tail
	}

	cost := r.w.Cost(outcomes)
	r.lap(lCost, t)
	for l := range r.ns {
		r.evalNs[l] = append(r.evalNs[l], r.ns[l]-before[l])
	}
	return cost, nil
}

// execute is quantum.Chip.Execute's steps on an ideal chip: the ASAP shot
// time, the router's choice at the chip's width, the engine's Run on a
// recycled simulator, and sampling from the chip's seeded stream.
func (r *replayer) execute(bound *circuit.Circuit, t *time.Time) (sim.Time, []uint64, error) {
	shot := circuit.Duration(bound, r.timing)
	*t = r.lap(lSchedule, *t)
	m, _, err := r.router.SelectWidth(bound, r.exec.NQubits)
	if err != nil {
		return 0, nil, err
	}
	*t = r.lap(lRoute, *t)
	s := r.sims[m]
	if s == nil || s.NQubits() != bound.NQubits {
		if s, err = route.NewSimulator(m, bound.NQubits); err != nil {
			return 0, nil, err
		}
		r.sims[m] = s
	}
	if err := s.Run(bound); err != nil {
		return 0, nil, err
	}
	*t = r.lap(lEngineRun, *t)
	r.method = m
	outcomes := s.Sample(r.cfg.Shots, r.rng)
	*t = r.lap(lEngineSample, *t)
	return shot, outcomes, nil
}

// check compares the replay with the run it reproduces: the run's
// accounting (RunResult fields other than the optimizer's), and the
// system's metrics snapshot, which must equal the replay's in full. The
// snapshot carries the pipeline Result totals (pulse.*), the SLT bank
// statistics (slt.*), bus beats and busy cycles (tilelink.*) and event
// counts (sim.*); a mismatch names the first instrument that diverged.
func (r *replayer) check(res report.RunResult, snap metrics.Snapshot) error {
	got := report.RunResult{
		Breakdown:        r.breakdown,
		Comm:             r.comm,
		Evaluations:      r.evals,
		InstructionCount: r.instrs,
		HostActivity:     r.hostActivity,
		CommActivity:     r.commActivity,
		PulsesGenerated:  r.pulsesGen,
		SLTHitRate:       r.bank.TotalStats().HitRate(),
		Method:           r.method.String(),
	}
	want := res
	want.History = nil
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("replay accounting %+v differs from the run's %+v", got, want)
	}
	mine := r.reg.Snapshot()
	if reflect.DeepEqual(mine, snap) {
		return nil
	}
	for _, n := range snap.Names() {
		if !reflect.DeepEqual(pick(mine, n), pick(snap, n)) {
			return fmt.Errorf("replay metric %s = %v, the system's snapshot has %v", n, pick(mine, n), pick(snap, n))
		}
	}
	return fmt.Errorf("replay metrics snapshot has instruments the system's lacks: %v vs %v", mine.Names(), snap.Names())
}

// pick returns the named instrument's state from a snapshot.
func pick(s metrics.Snapshot, name string) any {
	if v, ok := s.Counters[name]; ok {
		return v
	}
	if v, ok := s.Gauges[name]; ok {
		return v
	}
	if v, ok := s.Timers[name]; ok {
		return v
	}
	return nil
}
