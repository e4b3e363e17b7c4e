// Command seqbench runs the reproduction experiments (one per table or
// figure of the paper; see DESIGN.md) and prints their result tables.
//
// Usage:
//
//	seqbench [-quick] [experiment ids...]
//
// With no ids, every experiment runs in order. -quick selects the
// reduced CI-sized parameter sweeps.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced-size sweeps")
	list := flag.Bool("list", false, "list experiments and exit")
	analyze := flag.Bool("analyze", false, "EXPLAIN ANALYZE a representative query per experiment (per-node metrics)")
	par := flag.Bool("parallel", false, "sweep span-partitioned worker counts per experiment")
	parOut := flag.String("parallel-out", "", "also write the -parallel sweep to this file as JSON")
	parWorkers := flag.Int("parallel-workers", 0, "max workers of the -parallel sweep (0 = GOMAXPROCS)")
	mv := flag.Bool("matview", false, "measure repeated queries cold vs through a materialized view")
	mvOut := flag.String("matview-out", "", "also write the -matview sweep to this file as JSON")
	ro := flag.Bool("reopt", false, "measure mid-run reoptimization on skewed estimates plus a calibration round, writing BENCH_reopt.json")
	roOut := flag.String("reopt-out", "BENCH_reopt.json", "output path of the -reopt benchmark")
	dk := flag.Bool("disk", false, "benchmark the durable tier: cold/warm buffer-pool sweeps, a page-file vs LSM-style layout head-to-head and a cold-trace calibration round, writing BENCH_disk.json")
	dkOut := flag.String("disk-out", "BENCH_disk.json", "output path of the -disk benchmark")
	ba := flag.Bool("batch", false, "benchmark the vectorized batch plane against the scalar interpreter on the E1/E4 hot paths plus an intern-table hit-rate sweep, writing BENCH_batch.json")
	baOut := flag.String("batch-out", "BENCH_batch.json", "output path of the -batch benchmark")
	iv := flag.Bool("ivm", false, "benchmark incremental view maintenance against invalidate-and-recompute across 0/10/100 standing views under an append stream, writing BENCH_ivm.json")
	ivOut := flag.String("ivm-out", "BENCH_ivm.json", "output path of the -ivm benchmark")
	sv := flag.Bool("server", false, "sweep concurrent seqd client connections with a live append stream, writing BENCH_server.json")
	svOut := flag.String("server-out", "BENCH_server.json", "output path of the -server sweep")
	svAddr := flag.String("server-addr", "", "drive an already-running seqd at this address instead of an in-process one")
	svWorkers := flag.Int("server-workers", 0, "worker pool size of the in-process -server daemon (0 = GOMAXPROCS)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: seqbench [-quick] [-analyze] [-parallel] [-matview] [-reopt] [-disk] [-batch] [-ivm] [-server] [-list] [experiment ids...]\n\nexperiments:\n")
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
	case *par:
		points, err := experiments.ParallelSweep(flag.Args(), *quick, *parWorkers)
		emit("parallel sweep", points, err, experiments.RenderParallel, *parOut)
	case *mv:
		points, err := experiments.MatviewSweep(flag.Args(), *quick)
		emit("matview sweep", points, err, experiments.RenderMatview, *mvOut)
	case *ro:
		bench, err := experiments.ReoptBenchmark(*quick)
		emit("reopt benchmark", bench, err, experiments.RenderReopt, *roOut)
	case *dk:
		bench, err := experiments.DiskBenchmark(*quick)
		emit("disk benchmark", bench, err, experiments.RenderDisk, *dkOut)
	case *ba:
		bench, err := experiments.BatchBenchmark(*quick)
		emit("batch benchmark", bench, err, experiments.RenderBatch, *baOut)
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

// emit finishes a benchmark mode: it writes the result as JSON to out
// (when one is named), prints the rendered tables, and exits non-zero on
// any failure.
func emit[T any](what string, result T, err error, render func(T) string, out string) {
	if err == nil && out != "" {
		var data []byte
		if data, err = json.MarshalIndent(result, "", "  "); err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "seqbench: %s failed: %v\n", what, err)
		os.Exit(1)
	}
	fmt.Print(render(result))
	if out != "" {
		fmt.Printf("(wrote %s to %s)\n", what, out)
	}
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
