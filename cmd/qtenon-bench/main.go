// Command qtenon-bench regenerates the paper's tables and figures from
// the implemented system models.
//
// Usage:
//
//	qtenon-bench                 # run every experiment at full scale
//	qtenon-bench -exp fig13      # one experiment
//	qtenon-bench -quick          # CI-sized parameters
//	qtenon-bench -list           # list experiment ids
//	qtenon-bench -method dense   # pin the simulation engine (auto|dense|clifford|product|sharded)
//
// Host-time measurement lives in perfbench/ (see BENCHMARK.json); this
// command prints the tables and each experiment's wall time.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"qtenon/internal/backend"
	"qtenon/internal/bench"
	"qtenon/internal/route"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		quick      = flag.Bool("quick", false, "run reduced-scale experiments")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		csvDir     = flag.String("csv", "", "also write sweep data (fig11/fig12) as CSV into this directory")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
		method     = flag.String("method", "auto", "simulation engine: auto routes per circuit; dense|clifford|product|sharded pin one")
	)
	flag.Parse()
	forced, err := route.ParseMethod(*method)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qtenon-bench:", err)
		os.Exit(1)
	}

	if *list {
		fmt.Println(strings.Join(bench.Names(), "\n"))
		return
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qtenon-bench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "qtenon-bench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "qtenon-bench:", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // report live objects, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "qtenon-bench:", err)
				os.Exit(1)
			}
		}()
	}
	if *csvDir != "" {
		sc := bench.Full
		if *quick {
			sc = bench.QuickScale
		}
		sc.Method = forced
		for _, alg := range []backend.Algorithm{backend.GD, backend.SPSA} {
			rows, err := bench.SweepRows(sc, alg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "qtenon-bench:", err)
				os.Exit(1)
			}
			name := "fig11_gd.csv"
			if alg == backend.SPSA {
				name = "fig12_spsa.csv"
			}
			path := *csvDir + "/" + name
			if err := os.WriteFile(path, []byte(bench.SweepCSV(rows)), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "qtenon-bench:", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s (%d rows)\n", path, len(rows))
		}
		srows, err := bench.ScaleRows(sc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qtenon-bench:", err)
			os.Exit(1)
		}
		path := *csvDir + "/fig17_scalability.csv"
		if err := os.WriteFile(path, []byte(bench.ScaleCSV(srows)), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "qtenon-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d rows)\n", path, len(srows))
		fmt.Println(bench.CacheStatsLine())
		return
	}
	sc := bench.Full
	if *quick {
		sc = bench.QuickScale
	}
	sc.Method = forced
	names := bench.Names()
	if *exp != "all" {
		names = strings.Split(*exp, ",")
	}
	for _, name := range names {
		name = strings.TrimSpace(name)
		start := time.Now()
		out, err := bench.Run(name, sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qtenon-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Print(out)
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	fmt.Println(bench.CacheStatsLine())
}
