package main

import (
	"fmt"
	"time"

	"qtenon/internal/backend"
	"qtenon/internal/baseline"
	"qtenon/internal/host"
	"qtenon/internal/opt"
	"qtenon/internal/system"
	"qtenon/internal/vqa"
)

// defaultSeed is the seed the reference digests were recorded with. It
// equals the repository's own default (system.DefaultConfig and
// opt.DefaultOptions both use 1), so the default-seed run is the run
// every other tool in the repository reports.
const defaultSeed = 1

// machine is one of the paper's three machines, minted per run from the
// workload seed.
type machine struct {
	name    string
	factory func(seed int64) backend.Factory
}

// The three machines of Figure 13. Only the configuration's seed varies
// with the workload seed: it drives the chip's sampler and the bus's
// latency draws.
var (
	decoupled = machine{"baseline", func(seed int64) backend.Factory {
		c := baseline.DefaultConfig()
		c.Seed = seed
		return baseline.Factory{Cfg: c}
	}}
	hardwareOnly = machine{"qtenon-hw", func(seed int64) backend.Factory {
		c := system.HardwareOnlyConfig(host.BoomL())
		c.Seed = seed
		return system.Factory{Cfg: c}
	}}
	qtenon = machine{"qtenon", func(seed int64) backend.Factory { return system.Factory{Cfg: qtenonConfig(seed)} }}
)

// qtenonConfig is full Qtenon on the Boom-L core: the machine whose
// evaluations the per-evaluation metrics and the layer replay measure.
func qtenonConfig(seed int64) system.Config {
	c := system.DefaultConfig(host.BoomL())
	c.Seed = seed
	return c
}

// workload is one benchmark scenario: a VQE instance, an optimizer, and
// the machines each measured run drives, one after another, as a closed
// loop with a single client.
type workload struct {
	name       string
	why        string
	qubits     int
	alg        backend.Algorithm
	iterations int
	// timed lists the machines one measured run drives. Full Qtenon is
	// always among them; when the decoupled baseline is not, it runs once
	// per invocation outside the measured loop, for sim_speedup.
	timed []machine
	// deadline bounds one optimization run on one machine; an overrun
	// counts as a failure and stops the measurement.
	deadline time.Duration
	// paperMs holds the paper's simulated totals for the timed machines,
	// in order, or nil when the workload has no published reference.
	paperMs []float64
}

var workloads = []*workload{
	{
		name:       "fig13-64q",
		why:        "Figure 13 at paper scale: 64q VQE under SPSA on baseline, Qtenon w/o software and Qtenon; every parameter moves, so the SLT misses and pipeline.Run and pulse synthesis dominate",
		qubits:     64,
		alg:        backend.SPSA,
		iterations: 10,
		timed:      []machine{decoupled, hardwareOnly, qtenon},
		deadline:   30 * time.Second,
		paperMs:    []float64{204.3, 22.1, 18.1},
	},
	{
		name:       "vqe12-gd",
		why:        "12q VQE under batched parameter-shift GD on Qtenon; one parameter moves per evaluation, so the SLT hits and the dense engine, sampler and fixed per-evaluation work dominate",
		qubits:     12,
		alg:        backend.GD,
		iterations: 10,
		timed:      []machine{qtenon},
		deadline:   30 * time.Second,
	},
	{
		name:       "vqe24-sharded",
		why:        "24q VQE under SPSA on Qtenon; the router picks the sharded statevector, run across par on every core, so the engine and memory bandwidth dominate",
		qubits:     24,
		alg:        backend.SPSA,
		iterations: 3,
		timed:      []machine{qtenon},
		deadline:   60 * time.Second,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// options are the optimizer settings of one run: the paper's defaults
// with the workload's iteration count and the workload seed.
func (wl *workload) options(seed int64) opt.Options {
	o := opt.DefaultOptions()
	o.Iterations = wl.iterations
	o.Seed = seed
	return o
}

// circuit builds the workload's VQE instance (three ansatz layers, the
// paper's default).
func (wl *workload) circuit() (*vqa.Workload, error) { return vqa.New(vqa.VQE, wl.qubits) }

// machines lists every machine an invocation runs: the timed ones, then
// the decoupled baseline when the measured loop does not drive it.
func (wl *workload) machines() []machine {
	for _, m := range wl.timed {
		if m.name == decoupled.name {
			return wl.timed
		}
	}
	return append(append([]machine(nil), wl.timed...), decoupled)
}

// primary is the index of full Qtenon in timed.
func (wl *workload) primary() int {
	for i, m := range wl.timed {
		if m.name == qtenon.name {
			return i
		}
	}
	panic("perfbench: workload " + wl.name + " does not time full Qtenon")
}
