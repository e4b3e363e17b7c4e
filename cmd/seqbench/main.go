// Command seqbench runs the reproduction experiments (one per table or
// figure of the paper; see DESIGN.md) and prints their result tables.
//
// Usage:
//
//	seqbench [-quick] [experiment ids...]
//
// With no ids, every experiment runs in order. -quick selects the
// reduced CI-sized parameter sweeps. The end-to-end benchmark of seqd is
// bench/ (BENCHMARK.json); the -reopt, -disk, -ivm and -server modes
// keep only what it does not measure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced-size sweeps")
	list := flag.Bool("list", false, "list experiments and exit")
	analyze := flag.Bool("analyze", false, "EXPLAIN ANALYZE a representative query per experiment (per-node metrics)")
	ro := flag.Bool("reopt", false, "measure mid-run reoptimization on skewed estimates plus a calibration round, writing BENCH_reopt.json")
	roOut := flag.String("reopt-out", "BENCH_reopt.json", "output path of the -reopt benchmark")
	dk := flag.Bool("disk", false, "benchmark the durable tier: a page-file vs LSM-style layout head-to-head and a cold-trace calibration round, writing BENCH_disk.json")
	dkOut := flag.String("disk-out", "BENCH_disk.json", "output path of the -disk benchmark")
	iv := flag.Bool("ivm", false, "benchmark incremental view maintenance against invalidate-and-recompute across 0/10/100 standing views under an append stream, writing BENCH_ivm.json")
	ivOut := flag.String("ivm-out", "BENCH_ivm.json", "output path of the -ivm benchmark")
	sv := flag.Bool("server", false, "sweep concurrent seqd client connections with a live append stream, writing BENCH_server.json")
	svOut := flag.String("server-out", "BENCH_server.json", "output path of the -server sweep")
	svAddr := flag.String("server-addr", "", "drive an already-running seqd at this address instead of an in-process one")
	svWorkers := flag.Int("server-workers", 0, "worker pool size of the in-process -server daemon (0 = GOMAXPROCS)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: seqbench [-quick] [-analyze] [-reopt] [-disk] [-ivm] [-server] [-list] [experiment ids...]\n\nexperiments:\n")
		for _, e := range experiments.All() {
			fmt.Fprintf(os.Stderr, "  %s  %s\n", e.ID, e.Name)
		}
	}
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%s  %s\n", e.ID, e.Name)
		}
		return
	}

	var selected []experiments.Experiment
	if flag.NArg() == 0 {
		selected = experiments.All()
	} else {
		for _, id := range flag.Args() {
			e, ok := experiments.Lookup(strings.ToLower(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "seqbench: unknown experiment %q\n", id)
				flag.Usage()
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	switch {
	case *ro:
		bench, err := experiments.ReoptBenchmark(*quick)
		emit("reopt benchmark", bench, err, experiments.RenderReopt, *roOut)
	case *dk:
		bench, err := experiments.DiskBenchmark(*quick)
		emit("disk benchmark", bench, err, experiments.RenderDisk, *dkOut)
	case *iv:
		points, err := experiments.IVMBenchmark(*quick)
		emit("ivm benchmark", points, err, experiments.RenderIVM, *ivOut)
	case *sv:
		points, err := experiments.ServerSweep(*svAddr, *quick, *svWorkers)
		emit("server sweep", points, err, experiments.RenderServer, *svOut)
	default:
		runExperiments(selected, *quick, *analyze)
	}
}

// benchEnv is the machine and build a BENCH_*.json result was measured
// on.
type benchEnv struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the VCS revision the binary was built from, "+dirty"
	// when the tree had uncommitted changes, "unknown" under go run.
	Commit string `json:"commit"`
}

func currentEnv() benchEnv {
	commit, dirty := "unknown", false
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		commit += "+dirty"
	}
	return benchEnv{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
	}
}

// emit finishes a benchmark mode: it writes {"env": …, "result": …} as
// JSON to out, prints the rendered tables, and exits non-zero on any
// failure.
func emit[T any](what string, result T, err error, render func(T) string, out string) {
	if err == nil {
		var data []byte
		data, err = json.MarshalIndent(struct {
			Env    benchEnv `json:"env"`
			Result T        `json:"result"`
		}{currentEnv(), result}, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "seqbench: %s failed: %v\n", what, err)
		os.Exit(1)
	}
	fmt.Print(render(result))
	fmt.Printf("(wrote %s to %s)\n", what, out)
}

func runExperiments(selected []experiments.Experiment, quick, analyze bool) {
	failed := 0
	for _, e := range selected {
		if analyze {
			text, err := experiments.Analyze(e.ID, quick)
			if err != nil {
				fmt.Fprintf(os.Stderr, "seqbench: %s analyze failed: %v\n", e.ID, err)
				failed++
				continue
			}
			fmt.Printf("== %s: %s — EXPLAIN ANALYZE ==\n%s", e.ID, e.Name, text)
			continue
		}
		run := e.Run
		if quick {
			run = e.Quick
		}
		start := time.Now()
		table, err := run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "seqbench: %s failed: %v\n", e.ID, err)
			failed++
			continue
		}
		fmt.Println(table.Render())
		fmt.Printf("(%s completed in %s)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		if strings.Contains(table.Finding, "MISMATCH") {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "seqbench: %d experiment(s) failed or mismatched\n", failed)
		os.Exit(1)
	}
}
