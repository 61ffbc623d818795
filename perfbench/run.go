package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"qtenon/internal/backend"
	"qtenon/internal/report"
	"qtenon/internal/vqa"
)

// probe records what one optimization run on one machine did: the time
// Factory.New took, every Evaluate call's host time, the heap bytes the
// run allocated after set-up, and the peak live heap seen at evaluation
// boundaries. With record set it also keeps each parameter vector the
// optimizer sent and the cost the machine returned, for the replay.
type probe struct {
	record  bool
	newTime time.Duration
	evalNs  []int64
	evalSum time.Duration
	params  [][]float64
	costs   []float64
	inner   backend.Backend

	allocs0 uint64
	allocs  uint64
	peak    uint64
	mem     []metrics.Sample
}

func newProbe(record bool) *probe {
	return &probe{record: record, mem: []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/memory/classes/heap/objects:bytes"},
	}}
}

// sampleMem reads the cumulative allocation counter and lifts the peak
// heap mark.
func (p *probe) sampleMem() uint64 {
	metrics.Read(p.mem)
	if h := p.mem[1].Value.Uint64(); h > p.peak {
		p.peak = h
	}
	return p.mem[0].Value.Uint64()
}

// probeFactory wraps a machine's factory so that the backend.Run it is
// handed drives a probed backend.
type probeFactory struct {
	inner backend.Factory
	p     *probe
}

func (f probeFactory) New(w *vqa.Workload) (backend.Backend, error) {
	t0 := time.Now()
	b, err := f.inner.New(w)
	f.p.newTime = time.Since(t0)
	if err != nil {
		return nil, err
	}
	if _, ok := b.(backend.Batcher); !ok {
		return nil, fmt.Errorf("%T is not a backend.Batcher; the probe would change its run path", b)
	}
	f.p.inner = b
	f.p.allocs0 = f.p.sampleMem()
	return &probedBackend{b: b, p: f.p}, nil
}

// probedBackend times each evaluation. EvaluateBatch evaluates the batch
// one vector at a time through Evaluate, which the backend.Batcher
// contract makes identical to the machine's own batch call (both
// machines' EvaluateBatch is that same serial loop), so the optimizer
// still takes the batched parameter-shift path.
type probedBackend struct {
	b backend.Backend
	p *probe
}

func (pb *probedBackend) Evaluate(params []float64) (float64, error) {
	t0 := time.Now()
	v, err := pb.b.Evaluate(params)
	d := time.Since(t0)
	p := pb.p
	p.evalNs = append(p.evalNs, d.Nanoseconds())
	p.evalSum += d
	p.allocs = p.sampleMem() - p.allocs0
	if p.record {
		p.params = append(p.params, append([]float64(nil), params...))
		p.costs = append(p.costs, v)
	}
	return v, err
}

func (pb *probedBackend) EvaluateBatch(sets [][]float64, out []float64) error {
	for k, params := range sets {
		v, err := pb.Evaluate(params)
		if err != nil {
			return err
		}
		out[k] = v
	}
	return nil
}

func (pb *probedBackend) Result() report.RunResult { return pb.b.Result() }

// errOverrun marks a run that missed its deadline. The stuck goroutine
// cannot be stopped, so the caller stops measuring, reports, and exits.
var errOverrun = errors.New("deadline overrun")

// dumpDir receives a goroutine dump for every overrun.
var dumpDir = filepath.Join(".bench_build", "perfbench")

// withDeadline runs fn on its own goroutine and waits at most d for it.
// A panic in fn is returned as an error. On an overrun it writes every
// goroutine's stack to dumpDir and returns errOverrun, leaving fn's
// goroutine behind: the process exits after reporting, which ends it.
func withDeadline[T any](d time.Duration, label string, fn func() (T, error)) (T, error) {
	type result struct {
		v   T
		err error
	}
	done := make(chan result, 1) // the one send never blocks, even after an overrun
	go func() {
		var r result
		defer func() {
			if p := recover(); p != nil {
				r.err = fmt.Errorf("panic: %v", p)
			}
			done <- r
		}()
		r.v, r.err = fn()
	}()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case r := <-done:
		return r.v, r.err
	case <-timer.C:
		var zero T
		path := filepath.Join(dumpDir, fmt.Sprintf("overrun-%s-%d.txt", label, time.Now().UnixNano()))
		if err := writeGoroutines(path); err != nil {
			return zero, fmt.Errorf("%w after %v (goroutine dump failed: %v)", errOverrun, d, err)
		}
		return zero, fmt.Errorf("%w after %v; goroutines dumped to %s", errOverrun, d, path)
	}
}

func writeGoroutines(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("goroutine").WriteTo(f, 2); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// outcome is one optimization run on one machine.
type outcome struct {
	res     report.RunResult
	p       *probe
	runTime time.Duration // backend.Run's host time minus Factory.New's
}

// runMachine drives backend.Run on one machine under the workload's
// deadline and checks that the run really executed: the probe counted
// evaluations, and as many as the optimizer reports.
func runMachine(wl *workload, m machine, w *vqa.Workload, seed int64, record bool) (outcome, error) {
	p := newProbe(record)
	f := probeFactory{inner: m.factory(seed), p: p}
	o := wl.options(seed)
	out, err := withDeadline(wl.deadline, wl.name+"-"+m.name, func() (outcome, error) {
		t0 := time.Now()
		res, err := backend.Run(f, w, wl.alg, o)
		return outcome{res: res, p: p, runTime: time.Since(t0) - p.newTime}, err
	})
	if err != nil {
		return out, fmt.Errorf("%s: %w", m.name, err)
	}
	if n := len(p.evalNs); n == 0 || n != out.res.Evaluations {
		return out, fmt.Errorf("%s: probe saw %d evaluations, RunResult reports %d", m.name, n, out.res.Evaluations)
	}
	return out, nil
}

// digest fingerprints everything a RunResult reports: the simulated
// breakdown and communication split, host and communication activity,
// instruction count, SLT hit rate, pulses generated, simulation method,
// cost history and evaluation count. Floats enter by their bits, so two
// digests agree only when the runs are bit-identical.
func digest(r report.RunResult) string {
	h := sha256.New()
	b := r.Breakdown
	fmt.Fprintf(h, "breakdown %d %d %d %d\n", b.Quantum, b.Comm, b.PulseGen, b.HostComp)
	fmt.Fprintf(h, "comm %d %d %d\n", r.Comm.QSet, r.Comm.QUpdate, r.Comm.QAcquire)
	fmt.Fprintf(h, "activity %d %d\n", r.HostActivity, r.CommActivity)
	fmt.Fprintf(h, "instrs %d evals %d pulses %d\n", r.InstructionCount, r.Evaluations, r.PulsesGenerated)
	fmt.Fprintf(h, "slt %x method %s\n", math.Float64bits(r.SLTHitRate), r.Method)
	for _, v := range r.History {
		fmt.Fprintf(h, "%x\n", math.Float64bits(v))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// reference holds each workload's per-machine digests at defaultSeed,
// recorded with -record-reference.
//
//go:embed reference.json
var referenceJSON []byte

func referenceDigests(workload string) (map[string]string, error) {
	var all map[string]map[string]string
	if err := json.Unmarshal(referenceJSON, &all); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return all[workload], nil
}

// sameHistory reports whether two runs produced bit-identical cost
// histories. Every machine samples the same chip model from the same
// seed, so the three machines of one workload must agree.
func sameHistory(a, b []float64) bool { return sameCosts(a, b) < 0 }

// sameCosts reports the first index at which two cost sequences differ
// in any bit (or in length), or -1 when they are identical.
func sameCosts(got, want []float64) int {
	for i := range want {
		if i >= len(got) || math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	if len(got) != len(want) {
		return len(want)
	}
	return -1
}
