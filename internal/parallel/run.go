package parallel

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/seq"
	"repro/internal/storage"
)

// PartitionMetrics is the execution record of one partition worker of
// a partitioned run.
type PartitionMetrics struct {
	// Span is the partition's sub-span.
	Span seq.Span
	// Rows is the number of records the partition emitted.
	Rows int64
	// Pages is the base-store page movement attributed to this worker
	// (exact: each worker's leaves read private stats forks).
	Pages storage.StatsSnapshot
	// Elapsed is the worker's wall-clock time.
	Elapsed time.Duration
}

// Run evaluates the plan over span under the decision and returns the
// output, the metrics tree of the run and, for a partitioned decision,
// the per-worker records. Each worker (one for a serial decision) runs
// its own exec.Instrument copy, whose leaves count pages into private
// store forks; after the workers join, each copy's counters fold back
// into the shared store statistics and the shards sum into one tree
// mirroring the plan. pred supplies the optimizer's per-node estimates
// keyed by the plan's nodes (nil means none). ctx picks the data plane
// as in exec.Run; on the batch plane each worker runs under a private
// fork of ctx (same batch size, its own intern table, so handle spaces
// never cross goroutines) whose counters fold back into ctx. The
// partition outputs concatenate in partition order, so the merged output
// is exactly the serial Scan(span) stream.
func Run(p exec.Plan, span seq.Span, d *Decision, pred func(exec.Plan) exec.PredictedCost, ctx *seq.BatchCtx) (*seq.Materialized, *exec.NodeMetrics, []PartitionMetrics, error) {
	parts := []seq.Span{span}
	if d.Parallel() {
		parts = d.Partitions
	}
	workers := make([]exec.Plan, len(parts))
	roots := make([]*exec.NodeMetrics, len(parts))
	for i := range workers {
		var err error
		if workers[i], roots[i], err = exec.Instrument(p, pred); err != nil {
			return nil, nil, nil, err
		}
	}
	if len(parts) == 1 {
		out, err := exec.Run(workers[0], span, ctx)
		roots[0].Finalize()
		return out, roots[0], nil, err
	}
	out, pms, err := fanOut(p, workers, parts, ctx)
	for i, r := range roots {
		r.Finalize()
		pms[i].Pages = r.TotalPages()
	}
	if err != nil {
		return nil, nil, nil, err
	}
	for _, r := range roots[1:] {
		if err := roots[0].Merge(r); err != nil {
			return nil, nil, nil, err
		}
	}
	return out, roots[0], pms, nil
}

// WorkerPanic is the error of a partition worker that panicked: the
// panic fails the run that started the worker, not the process.
type WorkerPanic struct {
	Partition int
	Value     any
}

func (e *WorkerPanic) Error() string {
	return fmt.Sprintf("parallel: partition %d panicked: %v", e.Partition, e.Value)
}

// partitionStart, when set, runs as each partition worker starts: the
// tests' way to make a worker panic.
var partitionStart func(part int)

// fanOut is the one partitioned evaluation loop: workers[i] drains
// parts[i] through exec.Run on its own goroutine (under a fork of ctx
// on the batch plane), the forks' counters fold back into ctx, and the
// partition outputs concatenate in order. They are disjoint ascending
// sub-spans, so the concatenation is already sorted. A worker's panic
// becomes its partition's error (WorkerPanic).
func fanOut(p exec.Plan, workers []exec.Plan, parts []seq.Span, ctx *seq.BatchCtx) (*seq.Materialized, []PartitionMetrics, error) {
	k := len(parts)
	results := make([]*seq.Materialized, k)
	errs := make([]error, k)
	metrics := make([]PartitionMetrics, k)
	wctxs := make([]*seq.BatchCtx, k)
	var wg sync.WaitGroup
	for i, part := range parts {
		if ctx != nil {
			wctxs[i] = ctx.Fork()
		}
		wg.Add(1)
		go func(i int, part seq.Span) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = &WorkerPanic{Partition: i, Value: r}
				}
			}()
			if partitionStart != nil {
				partitionStart(i)
			}
			start := time.Now()
			results[i], errs[i] = exec.Run(workers[i], part, wctxs[i])
			metrics[i] = PartitionMetrics{Span: part, Elapsed: time.Since(start)}
		}(i, part)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, metrics, err
		}
	}
	if ctx != nil {
		for _, w := range wctxs {
			ctx.AbsorbCounters(w)
		}
	}
	total := 0
	for i, r := range results {
		metrics[i].Rows = int64(r.Count())
		total += r.Count()
	}
	all := make([]seq.Entry, 0, total)
	for _, r := range results {
		all = append(all, r.Entries()...)
	}
	out, err := seq.FromSortedEntries(p.Info().Schema, all)
	return out, metrics, err
}
