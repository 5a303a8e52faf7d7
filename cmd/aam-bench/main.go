// Command aam-bench regenerates the tables and figures of the paper's
// evaluation (see DESIGN.md §4 for the experiment index).
//
// Usage:
//
//	aam-bench -list
//	aam-bench -run fig4-bgq [-scale 2] [-csv out/]
//	aam-bench -run sharded,streaming -json BENCH_ci.json
//	aam-bench -run sharded -cpuprofile cpu.out -memprofile mem.out
//	aam-bench -all [-scale 0]
//
// Each experiment prints its data tables, free-form notes, and the shape
// checks that encode the paper's qualitative findings. -scale adds powers
// of two to the reduced default problem sizes (≈7 reaches the paper's).
// -json additionally writes the machine-readable metrics of every run
// experiment (consumed by aam-benchdiff in the bench-smoke CI gate): counts
// and virtual times only, so two runs of one -scale and -seed write the
// same bytes. Wall-clock questions go to benchmark/ (bash benchmark/run.sh).
//
// Exit status: 0 on success; 1 when a shape check failed or a report,
// CSV, profile or -json file could not be written (what finished is still
// written); 2 on a usage error, an unknown id in -run included — the ids
// are checked before anything runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"aamgo/internal/bench"
)

// main defers to run so the profile writers (deferred) still fire on the
// failure exits: nothing below run calls os.Exit.
func main() { os.Exit(run()) }

func run() int {
	var (
		list     = flag.Bool("list", false, "list experiments and exit")
		runID    = flag.String("run", "", "run the experiments with these comma-separated ids")
		all      = flag.Bool("all", false, "run every experiment")
		scale    = flag.Int("scale", 0, "problem-size shift added to reduced defaults")
		csv      = flag.String("csv", "", "directory for per-table CSV dumps")
		jsonPath = flag.String("json", "", "file for machine-readable metrics (bench-smoke CI gate)")
		seed     = flag.Int64("seed", 42, "workload seed")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile taken after the run to this file")
	)
	flag.Parse()

	var ids []string
	switch {
	case *list:
		for _, e := range bench.Experiments() {
			fmt.Printf("%-22s %s\n", e.ID, e.Title)
			fmt.Printf("%22s %s\n", "", e.Paper)
		}
		return 0
	case *runID != "":
		// Every id is checked before any runs: a typo at the end of the
		// list is a usage error, not minutes of discarded work.
		for _, id := range strings.Split(*runID, ",") {
			id = strings.TrimSpace(id)
			if _, ok := bench.ByID(id); !ok {
				fmt.Fprintf(os.Stderr, "aam-bench: unknown experiment %q (known: %s)\n", id, strings.Join(bench.IDs(), ", "))
				return 2
			}
			ids = append(ids, id)
		}
	case *all:
		for _, e := range bench.Experiments() {
			ids = append(ids, e.ID)
		}
	default:
		flag.Usage()
		return 2
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aam-bench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "aam-bench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	defer writeHeapProfile(*memProf)

	// What finished before a failure is still written out.
	ci := bench.CIReport{Scale: *scale, Seed: *seed}
	status, failures := 0, 0
	for _, id := range ids {
		failed, err := runOne(id, bench.Options{Scale: *scale, Out: os.Stdout, CSVDir: *csv, Seed: *seed}, &ci)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aam-bench:", err)
			status = 1
			break
		}
		failures += failed
	}
	if err := writeCI(*jsonPath, ci); err != nil {
		fmt.Fprintln(os.Stderr, "aam-bench:", err)
		status = 1
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "aam-bench: %d shape checks failed\n", failures)
		status = 1
	}
	return status
}

// writeHeapProfile dumps an up-to-date allocation profile (no-op when path
// is empty).
func writeHeapProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aam-bench:", err)
		return
	}
	defer f.Close()
	runtime.GC() // flush recent frees so the profile reflects live heap
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "aam-bench:", err)
	}
}

// runOne runs and renders one experiment, records it in ci and returns the
// number of failed shape checks. Its closing line gives the wall time and
// the bytes the experiment allocated (the TotalAlloc delta, in MB).
func runOne(id string, o bench.Options, ci *bench.CIReport) (int, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t0, alloc0 := time.Now(), ms.TotalAlloc
	rep, err := bench.RunOne(id, o)
	if err != nil {
		return 0, err
	}
	wall := time.Since(t0).Round(time.Millisecond)
	runtime.ReadMemStats(&ms)
	ci.Add(rep)
	failed := len(rep.FailedChecks())
	fmt.Printf("(%s finished in %v, allocated %.2f MB; %d/%d shape checks passed)\n\n",
		id, wall, float64(ms.TotalAlloc-alloc0)/1e6, len(rep.Checks)-failed, len(rep.Checks))
	return failed, nil
}

func writeCI(path string, ci bench.CIReport) error {
	if path == "" {
		return nil
	}
	if err := bench.WriteCI(path, ci); err != nil {
		return err
	}
	fmt.Printf("wrote metrics for %d experiment(s) to %s\n", len(ci.Experiments), path)
	return nil
}
