// Command perfbench is the repository's benchmark of the hybrid
// quantum-classical loop: one client drives backend.Run on the paper's
// machines, one optimization run at a time, and reports what a user of
// the reproduction waits for (host time per run and per evaluation,
// allocation, peak heap, set-up time) beside what the model simulates
// (Breakdown totals and the baseline-over-Qtenon speedup).
//
// With -trace 0 it reports the end-to-end metrics, measured with no
// tracing. With -trace 1 it records the parameter vectors the optimizer
// sent to full Qtenon, replays them through each layer's public
// functions in the order System.Evaluate calls them, and reports host
// time and work per layer per evaluation; the replay must reproduce the
// run's costs and metrics snapshot exactly or the traced run fails.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Run it through run.py, which builds it inside the checkout:
//
//	python3 perfbench/run.py --workload fig13-64q --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
	note       string
}

// result is what one invocation reports.
type result struct {
	attempted, failed int
	failures          []string
	lines             []string // human-readable context printed before the metrics
	metrics           []metric
}

func (r *result) fail(err error) {
	r.failed++
	r.failures = append(r.failures, err.Error())
}

func (r *result) add(name, unit string, v float64, note string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v, note: note})
}

func (r *result) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func main() {
	name := flag.String("workload", "fig13-64q", "workload to run: fig13-64q, vqe12-gd or vqe24-sharded")
	seed := flag.Int64("seed", defaultSeed, "workload seed: sets opt.Options.Seed and the machines' Config.Seed")
	seconds := flag.Int("seconds", 10, "host seconds to measure for")
	traced := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the replay")
	recordRef := flag.Bool("record-reference", false, "print the workload's digests at the default seed as reference.json content")
	flag.Parse()

	wl, err := lookupWorkload(*name)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("-seconds must be at least 1, got %d", *seconds)
	}
	if err == nil && *traced != 0 && *traced != 1 {
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *traced)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *recordRef {
		if err := recordReference(wl); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d\n", wl.name, *seed, *seconds, *traced)
	fmt.Printf("workload: %s; %d qubits, %s, %d iterations, %d shots\n", wl.why, wl.qubits, wl.alg, wl.iterations, qtenonConfig(*seed).Shots)
	fmt.Printf("environment: %s GOMAXPROCS=%d nproc=%d commit=%s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), commit())
	fmt.Printf("closed loop, one client, one optimization run at a time\n")

	window := time.Duration(*seconds) * time.Second
	var r *result
	if *traced == 1 {
		r = perLayer(wl, *seed, window)
	} else {
		r = endToEnd(wl, *seed, window)
	}
	emit(r)
}

// commit names the source revision the binary was built from, as the Go
// toolchain stamped it; a build outside a git checkout has none.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// emit prints the human-readable report and then the JSON result line.
func emit(r *result) {
	for _, l := range r.lines {
		fmt.Println(l)
	}
	for _, f := range r.failures {
		fmt.Println("FAILED:", f)
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("failed_frac = %g (%d of %d runs)\n", frac, r.failed, r.attempted)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, m := range r.metrics {
		note := ""
		if m.note != "" {
			note = "  (" + m.note + ")"
		}
		fmt.Printf("%-22s %14.6g %-6s%s\n", m.name, m.value, m.unit, note)
		if !math.IsNaN(m.value) && !math.IsInf(m.value, 0) {
			ms[m.name] = value{m.value, m.unit}
		}
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, ms})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// recordReference runs every machine the workload uses once at the
// default seed and prints their digests in reference.json's shape.
func recordReference(wl *workload) error {
	w, err := wl.circuit()
	if err != nil {
		return err
	}
	digests := map[string]string{}
	for _, m := range wl.machines() {
		o, err := runMachine(wl, m, w, defaultSeed, false)
		if err != nil {
			return err
		}
		digests[m.name] = digest(o.res)
	}
	out, err := json.MarshalIndent(map[string]map[string]string{wl.name: digests}, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
