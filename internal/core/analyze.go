package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/exec"
	"repro/internal/matview"
	"repro/internal/parallel"
	"repro/internal/reopt"
	"repro/internal/seq"
	"repro/internal/storage"
)

// Analysis is the outcome of an EXPLAIN ANALYZE run: the query output
// together with the per-node execution metrics of the instrumented plan
// and the global page-access deltas of the run, next to the optimizer's
// predictions. See OBSERVABILITY.md for how to read it.
type Analysis struct {
	// Output is the materialized query result (analysis runs the real
	// query, it does not simulate it).
	Output *seq.Materialized
	// Root is the metrics tree mirroring the executed plan.
	Root *exec.NodeMetrics
	// Span is the evaluated position range.
	Span seq.Span
	// Elapsed is the wall-clock time of the run, per-node timers
	// included.
	Elapsed time.Duration
	// Predicted is the optimizer's root estimate for the plan.
	Predicted Cost
	// GlobalPages is the page movement of the run, summed across the
	// plan's base stores and, under reoptimization, across its segments.
	// Every leaf reads a private fork of its store, so it equals the
	// movement of the shared storage counters over the run when nothing
	// else touches the stores concurrently, and Root.TotalPages() for an
	// unmonitored run.
	GlobalPages storage.StatsSnapshot
	// Params are the cost-model weights, used to convert page counters
	// into cost units for the predicted-vs-actual comparison.
	Params exec.CostWeights
	// Decision is the partition planner's choice the run executed under
	// (nil or serial for single-worker runs).
	Decision *parallel.Decision
	// Partitions holds the per-worker execution records of a partitioned
	// run: sub-span, rows emitted, exact page attribution, wall time.
	// Empty for serial runs. The merged Root sums these workers' metric
	// shards.
	Partitions []parallel.PartitionMetrics
	// Views snapshots the materialized-view registry counters after the
	// run — per-view hits, misses, and cumulative page accesses. Empty
	// when the plan was built without a registry.
	Views []matview.Counters
	// Reopt is the mid-run reoptimization record of the run: checkpoint
	// count, splice decisions (trigger node, observed vs. predicted,
	// old→new mode) and executed segments. Nil unless Options.Reopt is
	// enabled.
	Reopt *reopt.Report
	// Batches and BatchRows count the batches and valid rows the run's
	// root collector consumed; both zero when the root is drained row
	// by row (BatchOff), which also keeps that render's summary free of
	// the batch line.
	Batches   int64
	BatchRows int64
	// Intern totals the run's value-intern hit/miss counters, summed
	// across worker-private tables for partitioned runs.
	Intern seq.InternStats
}

// RunAnalyze executes the stream plan and returns the output together
// with the metrics every run records, labeled (exec.NodeMetrics.Labels).
// The plan is deep-copied before
// wrapping, so the Result stays reusable; operator caches in the
// instrumented copy are fresh, so cache counters describe this run only.
// With Options.Reopt enabled the run is monitored, Reopt carries the
// report and Root is the metrics tree of the last segment.
func (r *Result) RunAnalyze() (*Analysis, error) {
	a, err := r.RunMetered()
	if err != nil {
		return nil, err
	}
	if a.Root != nil {
		a.Root.Labels()
	}
	a.Views = r.viewCounters()
	return a, nil
}

// RunMetered is RunAnalyze without the view counters: the output, the
// run's metrics and its wall-clock time.
func (r *Result) RunMetered() (*Analysis, error) { return r.run(r.opts.Reopt) }

// run is the one run path behind Run, RunMetered, RunAnalyze and
// RunReoptWith.
// Options.Batch picks the data plane; cfg.Enabled monitors the run for
// mid-run splices; otherwise parallel.Run evaluates the plan under its
// partition decision. Either way every leaf counts its pages into a
// private store fork, which folds back into the shared counters before
// run returns.
func (r *Result) run(cfg reopt.Config) (*Analysis, error) {
	if !r.RunSpan.Bounded() && !r.RunSpan.IsEmpty() {
		return nil, fmt.Errorf("core: query output span %v is unbounded; request a bounded range", r.RunSpan)
	}
	var ctx *seq.BatchCtx
	if r.opts.Batch.Enabled() {
		ctx = seq.NewBatchCtx()
	}
	a := &Analysis{Span: r.RunSpan, Predicted: r.Cost, Params: r.Params}
	start := time.Now()
	var err error
	if cfg.Enabled {
		a.Output, a.Reopt, err = r.runReopt(cfg, ctx)
	} else {
		a.Output, a.Root, a.Partitions, err = parallel.Run(r.Plan, r.RunSpan, r.Parallel, r.predFn(), ctx)
	}
	a.Elapsed = time.Since(start)
	if err != nil {
		return nil, err
	}
	if a.Reopt != nil {
		for _, s := range a.Reopt.Segments {
			a.Root = s.Metrics
			a.GlobalPages = a.GlobalPages.Add(s.Metrics.TotalPages())
		}
	} else {
		a.GlobalPages = a.Root.TotalPages()
	}
	if a.Partitions != nil {
		a.Decision = r.Parallel
	}
	// Row-drained runs leave the root's batch counters zero, so their
	// reports print no batch summary.
	if ctx != nil {
		a.Batches, a.BatchRows, a.Intern = ctx.Batches, ctx.Rows, ctx.Intern.Stats()
	}
	return a, nil
}

// viewCounters snapshots the registry's per-view counters (nil when the
// plan was built without a registry).
func (r *Result) viewCounters() []matview.Counters {
	if r.Views == nil {
		return nil
	}
	views := r.Views.Views()
	out := make([]matview.Counters, len(views))
	for i, v := range views {
		out[i] = v.Counters()
	}
	return out
}

// Render returns the EXPLAIN ANALYZE report: a two-line summary followed
// by the plan tree, one operator per line, each carrying the optimizer's
// prediction and the node's actual counters.
func (a *Analysis) Render() string { return a.render(true) }

// RenderStable is Render without wall-clock times — byte-stable across
// runs, for golden tests and diffing.
func (a *Analysis) RenderStable() string { return a.render(false) }

func (a *Analysis) render(times bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "analyze span=%s rows=%d", a.Span, a.Output.Count())
	if times {
		fmt.Fprintf(&b, " elapsed=%s", a.Elapsed.Round(time.Microsecond))
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "predicted stream cost %.2f | actual page cost %.2f (%s)\n",
		a.Predicted.Stream, a.Params.PageCost(a.GlobalPages), a.GlobalPages)
	// Batch-plane summary: only runs that collect the root's batches
	// print it.
	if a.Batches > 0 {
		fmt.Fprintf(&b, "batch: batches=%d rows/batch=%.1f", a.Batches, float64(a.BatchRows)/float64(a.Batches))
		in := a.Intern
		if in.StrHits+in.StrMisses > 0 {
			fmt.Fprintf(&b, " intern[str hits=%d misses=%d", in.StrHits, in.StrMisses)
			if in.RecHits+in.RecMisses > 0 {
				fmt.Fprintf(&b, " rec hits=%d misses=%d", in.RecHits, in.RecMisses)
			}
			b.WriteByte(']')
		}
		b.WriteByte('\n')
	}
	if len(a.Partitions) > 0 {
		fmt.Fprintf(&b, "parallel K=%d halo=%s cost %.2f vs serial %.2f\n",
			len(a.Partitions), a.Decision.Halo, a.Decision.ParallelCost, a.Decision.SerialCost)
		for i, pm := range a.Partitions {
			fmt.Fprintf(&b, "  partition %d/%d span=%s rows=%d pages=%dseq+%drand cost=%.2f",
				i+1, len(a.Partitions), pm.Span, pm.Rows,
				pm.Pages.SeqPages, pm.Pages.RandPages, a.Params.PageCost(pm.Pages))
			if times {
				fmt.Fprintf(&b, " time=%s", pm.Elapsed.Round(time.Microsecond))
			}
			b.WriteByte('\n')
		}
	}
	if a.Reopt != nil {
		b.WriteString(a.Reopt.Render())
	}
	if a.Root == nil {
		return strings.TrimRight(b.String(), "\n")
	}
	a.Root.Walk(func(n *exec.NodeMetrics, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.Label)
		b.WriteString("  pred[")
		if n.Predicted.Known {
			first := true
			if n.Predicted.Stream != 0 || n.Predicted.ProbePer == 0 {
				fmt.Fprintf(&b, "stream=%.2f", n.Predicted.Stream)
				first = false
			}
			if n.Predicted.ProbePer != 0 {
				if !first {
					b.WriteByte(' ')
				}
				fmt.Fprintf(&b, "probe/=%.2f", n.Predicted.ProbePer)
			}
		} else {
			b.WriteByte('-')
		}
		fmt.Fprintf(&b, "] act[rows=%d", n.Rows())
		if n.ScanCalls > 0 {
			fmt.Fprintf(&b, " scans=%d", n.ScanCalls)
		}
		if n.Batches > 0 {
			fmt.Fprintf(&b, " batches=%d rows/batch=%.1f", n.Batches, float64(n.BatchRows)/float64(n.Batches))
		}
		if n.ProbeCalls > 0 {
			fmt.Fprintf(&b, " probes=%d nulls=%d", n.ProbeCalls, n.ProbeNulls)
		}
		if n.HasPages {
			fmt.Fprintf(&b, " pages=%dseq+%drand cost=%.2f",
				n.Pages.SeqPages, n.Pages.RandPages, a.Params.PageCost(n.Pages))
			// Disk-backed leaves also carry buffer-pool traffic: the
			// split between cached and real I/O behind the page touches.
			// Memory-backed stores never set these, keeping the render
			// byte-stable for existing plans.
			if n.Pages.HasPool() {
				fmt.Fprintf(&b, " pool=%dhit+%dmiss", n.Pages.PoolHits, n.Pages.PoolMisses)
				if n.Pages.PoolEvictions > 0 || n.Pages.DirtyWrites > 0 {
					fmt.Fprintf(&b, " evict=%d wb=%d", n.Pages.PoolEvictions, n.Pages.DirtyWrites)
				}
			}
		}
		b.WriteByte(']')
		if n.HasCache {
			fmt.Fprintf(&b, " cache[cap=%d peak=%d puts=%d evict=%d]",
				n.CacheCap, n.CachePeak, n.CachePuts, n.CacheEvictions)
		}
		if times {
			fmt.Fprintf(&b, " time=%s", (n.ScanTime + n.ProbeTime).Round(time.Microsecond))
		}
		b.WriteByte('\n')
	})
	for _, v := range a.Views {
		fmt.Fprintf(&b, "view %q span=%s records=%d density=%.3f hits=%d misses=%d pages[%s]\n",
			v.Name, v.Span, v.Records, v.Density, v.Hits, v.Misses, v.Pages)
	}
	return strings.TrimRight(b.String(), "\n")
}
