package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
)

// printEnv records the environment a run's numbers belong to.
func printEnv(w io.Writer) {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(w, "env    NumCPU=%d GOMAXPROCS=%d %s %s/%s commit=%s connections=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit, connections)
}

// runSet is the values of one pass over all workloads, keyed by
// workload then metric.
type runSet map[string]map[string]float64

// runAll runs every workload untraced and then traced, each in a freshly
// started process of this same binary, so one workload's heap, resident
// set and caches never reach the next. The children's output is passed
// through.
func runAll(seed int64, seconds float64, quick bool, outDir string, w io.Writer) (runSet, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	set := make(runSet)
	for _, trace := range []int{0, 1} {
		for _, name := range workloadNames {
			args := []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", outDir}
			if quick {
				args = append(args, "-quick")
			}
			var out bytes.Buffer
			cmd := exec.Command(self, args...)
			cmd.Stdout = io.MultiWriter(w, &out)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return nil, fmt.Errorf("%s (trace %d): %w", name, trace, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			var last struct {
				Correct bool
				Metrics map[string]struct{ Value float64 }
			}
			if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
				return nil, fmt.Errorf("%s (trace %d): result line: %w", name, trace, err)
			}
			if !last.Correct {
				return nil, fmt.Errorf("%s (trace %d): wrong or failed answers", name, trace)
			}
			if set[name] == nil {
				set[name] = make(map[string]float64)
			}
			for metric, m := range last.Metrics {
				set[name][metric] = m.Value
			}
		}
	}
	return set, nil
}

// runAA runs the whole set n times on this build and prints, per
// end-to-end metric and workload, the values, their relative spread
// against the metric's bound, and ok or unresolved; per exact count, the
// values and whether they match bit for bit.
func runAA(n int, seed int64, seconds float64, quick bool, outDir string) error {
	sets := make([]runSet, n)
	for i := range sets {
		var err error
		if sets[i], err = runAll(seed, seconds, quick, outDir, os.Stdout); err != nil {
			return err
		}
	}
	mismatches := 0
	for _, name := range workloadNames {
		for _, d := range endToEnd {
			lo, hi := sets[0][name][d.Name], sets[0][name][d.Name]
			for _, s := range sets {
				lo, hi = min(lo, s[name][d.Name]), max(hi, s[name][d.Name])
			}
			verdict := "ok"
			if relSpread(lo, hi) > d.Bound {
				verdict = "unresolved"
			}
			fmt.Printf("aa     %-14s %-40s", name, d.Name)
			for _, s := range sets {
				fmt.Printf(" %14.6g", s[name][d.Name])
			}
			fmt.Printf(" %-6s spread=%.4f bound=%.2f %s\n", d.Unit, relSpread(lo, hi), d.Bound, verdict)
		}
		for _, d := range perLayer {
			if !d.Exact {
				continue
			}
			verdict := "exact"
			for _, s := range sets {
				if s[name][d.Name] != sets[0][name][d.Name] {
					verdict = "MISMATCH"
				}
			}
			if verdict != "exact" {
				mismatches++
			}
			fmt.Printf("aa     %-14s %-40s", name, d.Name)
			for _, s := range sets {
				fmt.Printf(" %14.6g", s[name][d.Name])
			}
			fmt.Printf(" %-6s %s\n", d.Unit, verdict)
		}
	}
	if mismatches > 0 {
		return fmt.Errorf("%d exact counts differed between runs at the same seed", mismatches)
	}
	return nil
}
