// Command qtenon runs one hybrid quantum-classical workload on the
// Qtenon system, the decoupled baseline, or both, and prints the cost
// trajectory and end-to-end time breakdown.
//
// Usage:
//
//	qtenon -workload qaoa -qubits 16 -optimizer spsa -iterations 10
//	qtenon -workload vqe -qubits 64 -system both
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"qtenon/internal/backend"
	"qtenon/internal/baseline"
	"qtenon/internal/host"
	"qtenon/internal/mapper"
	"qtenon/internal/metrics"
	"qtenon/internal/opt"
	"qtenon/internal/quantum"
	"qtenon/internal/report"
	"qtenon/internal/system"
	"qtenon/internal/trace"
	"qtenon/internal/vqa"
)

func main() {
	var (
		workload    = flag.String("workload", "qaoa", "qaoa | vqe | qnn")
		qubits      = flag.Int("qubits", 16, "register width")
		optimizer   = flag.String("optimizer", "spsa", "gd | spsa")
		iters       = flag.Int("iterations", 10, "optimizer iterations")
		shots       = flag.Int("shots", 500, "shots per circuit evaluation")
		sys         = flag.String("system", "qtenon", "qtenon | baseline | both")
		core        = flag.String("core", "boom", "rocket | boom (Qtenon host core)")
		showTrace   = flag.Bool("trace", false, "render a resource timeline of the Qtenon run")
		noisy       = flag.Bool("noise", false, "run the chip with typical NISQ error rates")
		coupling    = flag.String("coupling", "all", "all | line | grid (Qtenon qubit connectivity; non-all routes the circuit)")
		showMetrics = flag.Bool("metrics", false, "dump each run's full metrics-registry snapshot as JSON")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			runtime.GC() // report live objects, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(err)
			}
		}()
	}

	kind, err := parseWorkload(*workload)
	if err != nil {
		fail(err)
	}
	runQtenon, runBaseline, err := parseSystem(*sys)
	if err != nil {
		fail(err)
	}
	hostCore, err := parseCore(*core)
	if err != nil {
		fail(err)
	}
	w, err := vqa.New(kind, *qubits)
	if err != nil {
		fail(err)
	}
	cmap, err := parseCoupling(*coupling, *qubits)
	if err != nil {
		fail(err)
	}
	useSPSA := strings.EqualFold(*optimizer, "spsa")
	if !useSPSA && !strings.EqualFold(*optimizer, "gd") {
		fail(fmt.Errorf("unknown optimizer %q", *optimizer))
	}
	o := opt.DefaultOptions()
	o.Iterations = *iters

	alg := backend.GD
	if useSPSA {
		alg = backend.SPSA
	}

	fmt.Printf("workload %s, %d parameters, optimizer %s, %d iterations, %d shots\n",
		w.Name, w.NumParams(), strings.ToUpper(*optimizer), *iters, *shots)

	var qres, bres *report.RunResult
	snapshots := map[string]metrics.Snapshot{}
	if runQtenon {
		cfg := system.DefaultConfig(hostCore)
		cfg.Shots = *shots
		if *noisy {
			cfg.Noise = quantum.TypicalNISQ()
		}
		cfg.Coupling = cmap
		qsys, err := system.New(cfg, w)
		if err != nil {
			fail(err)
		}
		var rec *trace.Recorder
		if *showTrace {
			rec = &trace.Recorder{}
			qsys.SetTrace(rec)
		}
		res, err := backend.RunOn(qsys, w.InitialParams, alg, o)
		if err != nil {
			fail(err)
		}
		qres = &res
		printRun("Qtenon", res)
		if rec != nil {
			fmt.Println("\nresource timeline:")
			fmt.Print(rec.Render(100))
		}
		snapshots["qtenon"] = qsys.Metrics().Snapshot()
	}
	if runBaseline {
		cfg := baseline.DefaultConfig()
		cfg.Shots = *shots
		bsys, err := baseline.New(cfg, w)
		if err != nil {
			fail(err)
		}
		res, err := backend.RunOn(bsys, w.InitialParams, alg, o)
		if err != nil {
			fail(err)
		}
		bres = &res
		printRun("baseline", res)
		snapshots["baseline"] = bsys.Metrics().Snapshot()
	}
	if qres != nil && bres != nil {
		fmt.Printf("end-to-end speedup: %.2f×  classical speedup: %.1f×\n",
			report.Speedup(bres.Breakdown.Total(), qres.Breakdown.Total()),
			report.Speedup(bres.Breakdown.Classical(), qres.Breakdown.Classical()))
	}
	if *showMetrics {
		out, err := json.MarshalIndent(snapshots, "", "  ")
		if err != nil {
			fail(err)
		}
		fmt.Printf("\nmetrics:\n%s\n", out)
	}
}

func parseWorkload(name string) (vqa.Kind, error) {
	switch strings.ToLower(name) {
	case "qaoa":
		return vqa.QAOA, nil
	case "vqe":
		return vqa.VQE, nil
	case "qnn":
		return vqa.QNN, nil
	default:
		return 0, fmt.Errorf("unknown workload %q (want qaoa|vqe|qnn)", name)
	}
}

// parseSystem reports which machines -system runs.
func parseSystem(name string) (qtenon, baseline bool, err error) {
	switch strings.ToLower(name) {
	case "qtenon":
		return true, false, nil
	case "baseline":
		return false, true, nil
	case "both":
		return true, true, nil
	default:
		return false, false, fmt.Errorf("unknown system %q (want qtenon|baseline|both)", name)
	}
}

// parseCore returns the Qtenon host core -core names.
func parseCore(name string) (host.Core, error) {
	switch strings.ToLower(name) {
	case "rocket":
		return host.Rocket(), nil
	case "boom":
		return host.BoomL(), nil
	default:
		return host.Core{}, fmt.Errorf("unknown core %q (want rocket|boom)", name)
	}
}

// parseCoupling returns the Qtenon coupling map -coupling names for a
// register of the given width: nil (all-to-all) for "all", a line, or
// the smallest near-square grid that holds every qubit. The width must
// be positive.
func parseCoupling(name string, qubits int) (*mapper.Coupling, error) {
	switch strings.ToLower(name) {
	case "all":
		return nil, nil
	case "line":
		return mapper.Line(qubits), nil
	case "grid":
		rows := 1
		for rows*rows < qubits {
			rows++
		}
		return mapper.Grid(rows, (qubits+rows-1)/rows), nil
	default:
		return nil, fmt.Errorf("unknown coupling %q (want all|line|grid)", name)
	}
}

func printRun(name string, res report.RunResult) {
	fmt.Printf("\n[%s] %d evaluations, %d ISA ops\n", name, res.Evaluations, res.InstructionCount)
	fmt.Printf("  %v\n", res.Breakdown)
	if res.Comm.Total() > 0 {
		p := res.Comm.Percent()
		fmt.Printf("  comm by class: q_set %.1f%%, q_update %.1f%%, q_acquire %.1f%%\n", p[0], p[1], p[2])
	}
	fmt.Print("  cost history:")
	for _, c := range res.History {
		fmt.Printf(" %.4f", c)
	}
	fmt.Println()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "qtenon:", err)
	os.Exit(1)
}
