// Command bench is the repository's benchmark: it drives an in-process
// seqd server over a loopback TCP listener through the wire protocol on
// four workloads, checks every answer against an oracle, and prints
// every metric by name. See README.md and ../BENCHMARK.json.
//
//	go run ./bench -workload plan_bound -seed 1 -seconds 10 -trace 0
//	go run ./bench                # all four workloads, then the traced pass
//	go run ./bench -aa 2          # the whole set twice, compared
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload in this process and print its metrics; empty runs all four, each in a process of its own")
		seed         = flag.Int64("seed", 1, "generator seed: same seed, same data and operations")
		seconds      = flag.Float64("seconds", 10, "time measured, in all, split evenly over the rounds")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced pass and the per-layer metrics")
		quick        = flag.Bool("quick", false, "test-sized data, for smoke runs")
		aa           = flag.Int("aa", 0, "run the whole set this many times on this build and compare (A/A)")
		outDir       = flag.String("out", "bench/out", "directory for database files and traces")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	var err error
	switch {
	case *workloadName != "":
		err = runOne(*workloadName, *seed, *seconds, *trace == 1, *quick, *outDir)
	case *aa > 0:
		err = runAA(*aa, *seed, *seconds, *quick, *outDir)
	default:
		_, err = runAll(*seed, *seconds, *quick, *outDir, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne measures one workload in this process and prints its result.
func runOne(name string, seed int64, seconds float64, traced, quick bool, outDir string) error {
	run, defs := runEndToEnd, endToEnd
	if traced {
		run, defs = runTraced, perLayer
	}
	res, err := run(name, seed, seconds, quick, outDir)
	if err != nil {
		return err
	}
	printEnv(os.Stdout)
	return res.print(os.Stdout, defs)
}
