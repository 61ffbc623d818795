// Package baseline models the decoupled quantum system Qtenon is compared
// against (§7.1): an i9-14900K host connected to an FPGA quantum
// controller over a 100-gigabit UDP link (switches omitted, as in the
// paper), with Qiskit-style just-in-time compilation every evaluation,
// fixed 1000 ns-per-pulse FPGA pulse generation, and strictly sequential
// execution — no overlap between quantum execution, transmission, and
// host processing.
package baseline

import (
	"fmt"

	"qtenon/internal/backend"
	"qtenon/internal/circuit"
	"qtenon/internal/host"
	"qtenon/internal/isa"
	"qtenon/internal/metrics"
	"qtenon/internal/quantum"
	"qtenon/internal/report"
	"qtenon/internal/route"
	"qtenon/internal/sim"
	"qtenon/internal/vqa"
)

// Link models the host↔FPGA network: a fixed per-message overhead
// (kernel UDP stack + NIC) plus payload time at line rate.
type Link struct {
	PerMessage sim.Time
	BitsPerNs  float64 // line rate; 100 Gb/s = 100 bits/ns
}

// DefaultLink returns the calibrated 100 GbE UDP model.
func DefaultLink() Link {
	return Link{PerMessage: 8 * sim.Microsecond, BitsPerNs: 100}
}

// MessageTime is the latency of one message carrying `bytes` of payload.
func (l Link) MessageTime(bytes int) sim.Time {
	payload := sim.FromNanoseconds(float64(bytes*8) / l.BitsPerNs)
	return l.PerMessage + payload
}

// Config assembles a baseline system.
type Config struct {
	Core  host.Core
	Costs host.Costs
	Link  Link
	// PulsePerGate is the FPGA's fixed pulse-generation latency (paper:
	// 1000 ns per pulse, sequential).
	PulsePerGate sim.Time
	ADI          quantum.ADI
	Shots        int
	Seed         int64
	// Method pins the chip's simulation method; route.Auto (zero value)
	// keeps automatic routing.
	Method route.Method
}

// DefaultConfig returns the paper's baseline setup.
func DefaultConfig() Config {
	return Config{
		Core:         host.I9(),
		Costs:        host.DefaultCosts(),
		Link:         DefaultLink(),
		PulsePerGate: 1000 * sim.Nanosecond,
		ADI:          quantum.DefaultADI(),
		Shots:        500,
		Seed:         1,
	}
}

// System is a decoupled machine bound to one workload.
type System struct {
	cfg      Config
	workload *vqa.Workload
	chip     *quantum.Chip
	shape    isa.WorkloadShape
	pulses   int // drive pulses per circuit execution (2q gates → 2)
	// programLen is the quantum-dedicated instruction count of one
	// compiled circuit, measured by actually generating eQASM-style code
	// for the workload (isa.GenerateEQASM) rather than estimated.
	programLen int

	// boundScratch is the reusable bound-circuit shadow handed to the
	// chip each evaluation (Execute consumes it synchronously).
	boundScratch *circuit.Circuit

	// Accumulated accounting.
	breakdown report.Breakdown
	evals     int
	instrs    int

	reg *metrics.Registry
	m   instruments
}

// instruments are the registry handles the decoupled machine updates:
// the baseline has no controller-side hardware to report, so its
// components are the host (JIT compiles, network messages), the quantum
// chip, and the run loop.
type instruments struct {
	evaluations  *metrics.Counter
	jitCompiles  *metrics.Counter
	messages     *metrics.Counter
	instructions *metrics.Counter
	shots        *metrics.Counter
	shotTime     *metrics.Timer
	pulses       *metrics.Counter
	// methods counts evaluations per routed simulation method, indexed
	// by route.Method ("quantum.method.dense" etc.; Auto never fires).
	methods [route.NumMethods]*metrics.Counter
}

// New binds a baseline system to a workload.
func New(cfg Config, w *vqa.Workload) (*System, error) {
	if cfg.Shots <= 0 {
		return nil, fmt.Errorf("baseline: non-positive shot count")
	}
	if err := cfg.Costs.Validate(); err != nil {
		return nil, err
	}
	chip, err := quantum.NewChip(w.NQubits(), cfg.Seed, quantum.Noise{})
	if err != nil {
		return nil, err
	}
	chip.ForceMethod(cfg.Method)
	ct := w.Circuit.Count()
	// Generate the actual quantum-dedicated program once to size the
	// per-evaluation upload; the structure is parameter-independent.
	gen, err := isa.GenerateEQASM(w.Circuit.Bind(w.InitialParams), circuit.DefaultTiming())
	if err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	var methods [route.NumMethods]*metrics.Counter
	for m := route.Method(0); m < route.NumMethods; m++ {
		methods[m] = reg.Counter("quantum.method." + m.String())
	}
	return &System{
		cfg:      cfg,
		workload: w,
		chip:     chip,
		shape: isa.WorkloadShape{
			Gates:      ct.OneQubit + ct.TwoQubit,
			TwoQubit:   ct.TwoQubit,
			Measures:   ct.Measure,
			Params:     w.NumParams(),
			Iterations: 1,
		},
		pulses:     ct.OneQubit + 2*ct.TwoQubit,
		programLen: gen.Len(),
		reg:        reg,
		m: instruments{
			evaluations:  reg.Counter("system.evaluations"),
			jitCompiles:  reg.Counter("host.jit_compiles"),
			messages:     reg.Counter("host.messages"),
			instructions: reg.Counter("controller.instructions"),
			shots:        reg.Counter("quantum.shots"),
			shotTime:     reg.Timer("quantum.shot_time_ps"),
			pulses:       reg.Counter("pulse.generated"),
			methods:      methods,
		},
	}, nil
}

// Metrics exposes the instance's metrics registry.
func (s *System) Metrics() *metrics.Registry { return s.reg }

// EvaluateBatch evaluates every parameter vector in batch order —
// backend.Batcher. Like the Qtenon machine, baseline evaluations are
// serial accounting events, so the batch is the serial sequence with
// identical results; see system.EvaluateBatch.
func (s *System) EvaluateBatch(sets [][]float64, out []float64) error {
	for k, p := range sets {
		v, err := s.Evaluate(p)
		if err != nil {
			return err
		}
		out[k] = v
	}
	return nil
}

// Evaluate runs one cost evaluation with full baseline accounting. It is
// an opt.Evaluator. A parameter vector of the wrong length or with a
// non-finite value is an error before any state changes
// (backend.CheckParams).
func (s *System) Evaluate(params []float64) (float64, error) {
	if err := backend.CheckParams(params, s.workload.NumParams()); err != nil {
		return 0, fmt.Errorf("baseline: %w", err)
	}
	s.evals++
	s.m.evaluations.Inc()
	var b report.Breakdown

	// 1. JIT recompilation on the host — every evaluation, from scratch.
	b.HostComp += s.cfg.Core.Time(s.cfg.Costs.JITCompile(s.shape.Gates))
	s.m.jitCompiles.Inc()

	// 2. Ship the compiled program to the FPGA. The binary carries one
	//    word per quantum-dedicated instruction of the generated code.
	programBytes := s.programLen * 4
	b.Comm += s.cfg.Link.MessageTime(programBytes)
	b.HostComp += s.cfg.Core.Time(s.cfg.Costs.DriverPerMessage)
	s.instrs += s.programLen
	s.m.instructions.Add(int64(s.programLen))
	s.m.messages.Inc()

	// 3. FPGA pulse generation: fixed latency per pulse, sequential, no
	//    reuse across evaluations.
	b.PulseGen += sim.Time(s.pulses) * s.cfg.PulsePerGate
	s.m.pulses.Add(int64(s.pulses))

	// 4. Quantum execution.
	bound := s.workload.Circuit.BindInto(s.boundScratch, params)
	s.boundScratch = bound
	ex, err := s.chip.Execute(bound, s.cfg.Shots)
	if err != nil {
		return 0, err
	}
	b.Quantum += sim.Time(s.cfg.Shots) * (ex.ShotTime + s.cfg.ADI.RoundTrip())
	s.m.shots.Add(int64(s.cfg.Shots))
	s.m.shotTime.Observe(int64(ex.ShotTime))
	s.m.methods[s.chip.Method()].Inc()

	// 5. Results return over UDP, one message per shot.
	resultBytes := (s.workload.NQubits() + 7) / 8
	b.Comm += sim.Time(s.cfg.Shots) * s.cfg.Link.MessageTime(resultBytes)
	b.HostComp += sim.Time(s.cfg.Shots) * s.cfg.Core.Time(s.cfg.Costs.DriverPerMessage)
	s.m.messages.Add(int64(s.cfg.Shots))

	// 6. Host post-processing and optimizer arithmetic.
	b.HostComp += s.cfg.Core.Time(s.cfg.Costs.PostProcess(s.cfg.Shots, s.workload.NQubits()))
	b.HostComp += s.cfg.Core.Time(s.cfg.Costs.ParamUpdate(s.workload.NumParams()))

	s.breakdown.Add(b)
	return s.workload.Cost(ex.Outcomes), nil
}

// Result reports everything accumulated so far as one report.RunResult —
// the Backend accounting surface. The decoupled stack has no overlap,
// so host and communication activity equal their exposed breakdown
// shares. History is the optimizer's to fill (backend.RunOn overwrites
// it).
func (s *System) Result() report.RunResult {
	var method string
	if s.evals > 0 {
		method = s.chip.Method().String()
	}
	return report.RunResult{
		Breakdown:        s.breakdown,
		Evaluations:      s.evals,
		InstructionCount: s.instrs,
		HostActivity:     s.breakdown.HostComp,
		CommActivity:     s.breakdown.Comm,
		PulsesGenerated:  int64(s.pulses) * int64(s.evals),
		Method:           method,
	}
}

// Factory mints independent baseline systems from one configuration —
// the backend.Factory for the decoupled machine.
type Factory struct {
	Cfg Config
}

// New implements backend.Factory.
func (f Factory) New(w *vqa.Workload) (backend.Backend, error) { return New(f.Cfg, w) }

// Interface conformance.
var (
	_ backend.Backend      = (*System)(nil)
	_ backend.Instrumented = (*System)(nil)
	_ backend.Factory      = Factory{}
)
