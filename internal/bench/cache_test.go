package bench

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"qtenon/internal/backend"
	"qtenon/internal/baseline"
	"qtenon/internal/host"
	"qtenon/internal/report"
	"qtenon/internal/route"
	"qtenon/internal/system"
	"qtenon/internal/vqa"
)

// resetCache drops all cached runs and zeroes the counters, so a test
// starts from a cold cache.
func resetCache() {
	cache.mu.Lock()
	cache.entries = nil
	cache.mu.Unlock()
	cache.hits.Store(0)
	cache.misses.Store(0)
}

// TestRunCacheExactlyOnce hammers one key from many goroutines and
// checks the run body executed exactly once, with every caller seeing
// the same result.
func TestRunCacheExactlyOnce(t *testing.T) {
	var c runCache
	var executions atomic.Int64
	const callers = 16
	results := make([]report.RunResult, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c.do("k", func() (report.RunResult, error) {
				executions.Add(1)
				return report.RunResult{Evaluations: 7, History: []float64{1, 2}}, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	if n := executions.Load(); n != 1 {
		t.Fatalf("run body executed %d times, want exactly 1", n)
	}
	if h, m := c.hits.Load(), c.misses.Load(); m != 1 || h != callers-1 {
		t.Fatalf("hits=%d misses=%d, want %d/1", h, m, callers-1)
	}
	for i, res := range results {
		if res.Evaluations != 7 || !reflect.DeepEqual(res.History, []float64{1, 2}) {
			t.Fatalf("caller %d saw %+v", i, res)
		}
	}
}

// TestRunCacheHistoryIsolated checks a caller mutating its History copy
// cannot corrupt the cached run.
func TestRunCacheHistoryIsolated(t *testing.T) {
	var c runCache
	run := func() (report.RunResult, error) {
		return report.RunResult{History: []float64{1, 2, 3}}, nil
	}
	a, _ := c.do("k", run)
	a.History[0] = 99
	b, _ := c.do("k", run)
	if b.History[0] != 1 {
		t.Fatalf("cached History corrupted by caller mutation: %v", b.History)
	}
}

// TestRunCachePanicRecordedAsError checks a panicking run cannot poison
// its key: the first caller sees the panic re-raised, and a later caller
// gets an error instead of a zero RunResult.
func TestRunCachePanicRecordedAsError(t *testing.T) {
	var c runCache
	func() {
		defer func() {
			if r := recover(); r != "run exploded" {
				t.Fatalf("first caller recovered %v, want the run's panic", r)
			}
		}()
		c.do("k", func() (report.RunResult, error) { panic("run exploded") })
	}()
	res, err := c.do("k", func() (report.RunResult, error) {
		t.Error("run executed twice for one key")
		return report.RunResult{}, nil
	})
	if err == nil {
		t.Fatalf("second caller got %+v with a nil error after the run panicked", res)
	}
}

// TestRunCacheKeysDiscriminate checks that every knob that changes a
// run's behaviour lands in the key: same-looking configurations must
// share, different ones must not.
func TestRunCacheKeysDiscriminate(t *testing.T) {
	base := system.DefaultConfig(host.BoomL())
	o := QuickScale.options()
	k0 := qtenonKey(base, vqa.VQE, 8, backend.SPSA, o)
	if k1 := qtenonKey(base, vqa.VQE, 8, backend.SPSA, o); k1 != k0 {
		t.Fatalf("identical configs produced different keys:\n%s\n%s", k0, k1)
	}
	mutants := []system.Config{}
	for _, mut := range []func(*system.Config){
		func(c *system.Config) { c.Shots++ },
		func(c *system.Config) { c.Seed++ },
		func(c *system.Config) { c.Batching = !c.Batching },
		func(c *system.Config) { c.Incremental = !c.Incremental },
		func(c *system.Config) { c.UseSLT = !c.UseSLT },
		func(c *system.Config) { c.PGUs++ },
		func(c *system.Config) { c.Noise.Readout = 0.01 },
		func(c *system.Config) { c.Core = host.Rocket() },
		func(c *system.Config) { c.Method = route.Dense },
		func(c *system.Config) { c.Method = route.Sharded },
	} {
		c := base
		mut(&c)
		mutants = append(mutants, c)
	}
	seen := map[string]int{k0: -1}
	for i, c := range mutants {
		k := qtenonKey(c, vqa.VQE, 8, backend.SPSA, o)
		if prev, dup := seen[k]; dup {
			t.Fatalf("mutant %d collides with %d: %s", i, prev, k)
		}
		seen[k] = i
	}
	if k := qtenonKey(base, vqa.QAOA, 8, backend.SPSA, o); seen[k] == -1 {
		t.Fatal("workload kind missing from key")
	}
	if k := qtenonKey(base, vqa.VQE, 10, backend.SPSA, o); seen[k] == -1 {
		t.Fatal("qubit count missing from key")
	}
	if k := qtenonKey(base, vqa.VQE, 8, backend.GD, o); seen[k] == -1 {
		t.Fatal("algorithm missing from key")
	}
}

// TestMethodPinnedRunsDoNotShareCache is the end-to-end shape of the
// original bug: the run-memoization keys predate method routing, so two
// runs differing only in the pinned engine could be served one cached
// result. They must execute as two unique runs.
func TestMethodPinnedRunsDoNotShareCache(t *testing.T) {
	resetCache()
	defer resetCache()
	var results [2]report.RunResult
	for i, sc := range [2]Scale{
		{Quick: true},
		{Quick: true, Method: route.Dense},
	} {
		res, err := runQtenon(vqa.VQE, 4, host.BoomL(), backend.SPSA, sc)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = res
	}
	if _, misses := CacheStats(); misses != 2 {
		t.Fatalf("unique runs executed = %d, want 2 (auto and forced-dense must not share a key)", misses)
	}
	if results[1].Method != "dense" {
		t.Fatalf("forced-dense run reported method %q", results[1].Method)
	}
	bk := func(m route.Method) string {
		cfg := baseline.DefaultConfig()
		cfg.Method = m
		return baselineKey(cfg, vqa.VQE, 8, backend.SPSA, QuickScale.options())
	}
	if bk(route.Auto) == bk(route.Product) {
		t.Error("baselineKey ignores Config.Method")
	}
}

// TestFiguresShareRuns regenerates two figures that contain the same
// underlying run and checks the cache deduplicated it, while a cold
// cache executes every unique run as a miss.
func TestFiguresShareRuns(t *testing.T) {
	resetCache()
	defer resetCache()
	if _, err := Figure13(QuickScale); err != nil {
		t.Fatal(err)
	}
	_, missesAfter13 := CacheStats()
	if missesAfter13 == 0 {
		t.Fatal("figure 13 executed no runs")
	}
	// Figure 14 includes the BoomL VQE SPSA run Figure 13 already did.
	if _, err := Figure14(QuickScale); err != nil {
		t.Fatal(err)
	}
	hits, _ := CacheStats()
	if hits == 0 {
		t.Fatal("figures 13 and 14 share runs, but the cache recorded no hits")
	}
	// Rerunning a whole figure must be all hits, no new executions.
	_, missesBefore := CacheStats()
	if _, err := Figure13(QuickScale); err != nil {
		t.Fatal(err)
	}
	if _, misses := CacheStats(); misses != missesBefore {
		t.Fatalf("rerun executed %d new runs, want 0", misses-missesBefore)
	}
}
