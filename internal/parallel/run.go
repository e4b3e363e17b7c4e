package parallel

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/seq"
	"repro/internal/storage"
)

// CloneWorkers deep-copies the plan once per partition. Every copy has
// private operator caches and materialization state; the invariant
// verifier checks the copies share no mutable cache with each other or
// with the original.
func CloneWorkers(p exec.Plan, k int) ([]exec.Plan, error) {
	clones := make([]exec.Plan, k)
	for i := range clones {
		c, _, err := exec.ClonePlan(p)
		if err != nil {
			return nil, err
		}
		clones[i] = c
	}
	return clones, nil
}

// Run evaluates the plan over the decision's partitions on one worker
// goroutine per partition and concatenates the per-partition results —
// in partition order, so the merged output is exactly the serial
// Scan(span) stream — into one materialized result. ctx picks the data
// plane as in exec.Run; on the batch plane each worker runs under a
// private fork of ctx (same batch size, its own intern table, so handle
// spaces never cross goroutines) whose counters fold back into ctx. A
// serial decision (or a plan that turns out not to be clonable) falls
// back to exec.Run.
func Run(p exec.Plan, span seq.Span, d *Decision, ctx *seq.BatchCtx) (*seq.Materialized, error) {
	if !d.Parallel() {
		return exec.Run(p, span, ctx)
	}
	clones, err := CloneWorkers(p, len(d.Partitions))
	if err != nil {
		return exec.Run(p, span, ctx)
	}
	out, _, err := fanOut(p, clones, d.Partitions, ctx)
	return out, err
}

// PartitionMetrics is the execution record of one partition worker in
// an instrumented parallel run.
type PartitionMetrics struct {
	// Span is the partition's sub-span.
	Span seq.Span
	// Rows is the number of records the partition emitted.
	Rows int64
	// Pages is the base-store page movement attributed to this worker
	// (exact: each worker meters private stats forks).
	Pages storage.StatsSnapshot
	// Elapsed is the worker's wall-clock time.
	Elapsed time.Duration
}

// statsFork records one worker-private stats block and the shared block
// it must be folded back into on completion.
type statsFork struct {
	shared *storage.Stats
	priv   *storage.Stats
}

// RunAnalyze is Run with per-worker exec.Instrument shards, merged
// deterministically: the result entries concatenate in partition order,
// the per-node metric shards sum into one tree mirroring the plan, and
// each worker's page accesses — metered against worker-private forks of
// the base stores, so concurrent attribution stays exact — are folded
// back into the shared store counters at completion. pred supplies the
// optimizer's per-node estimates keyed by the ORIGINAL plan's nodes;
// the clone mapping carries them onto each shard.
func RunAnalyze(p exec.Plan, span seq.Span, d *Decision, pred func(exec.Plan) exec.PredictedCost, ctx *seq.BatchCtx) (*seq.Materialized, *exec.NodeMetrics, []PartitionMetrics, error) {
	if !d.Parallel() {
		return nil, nil, nil, fmt.Errorf("parallel: RunAnalyze requires a parallel decision")
	}
	if pred == nil {
		pred = func(exec.Plan) exec.PredictedCost { return exec.PredictedCost{} }
	}
	k := len(d.Partitions)
	workers := make([]exec.Plan, k)
	roots := make([]*exec.NodeMetrics, k)
	forks := make([][]statsFork, k)
	for i := range workers {
		clone, orig, err := exec.ClonePlan(p)
		if err != nil {
			return nil, nil, nil, err
		}
		// Swap each base store for a fork counting into worker-private
		// statistics, so the Metered delta-snapshot attribution inside
		// Instrument never races with the other workers.
		exec.ReplaceLeafSeqs(clone, func(l *exec.Leaf) {
			if st, ok := l.Seq.(storage.StatsForker); ok {
				priv := &storage.Stats{}
				forks[i] = append(forks[i], statsFork{shared: st.Stats(), priv: priv})
				l.Seq = st.Fork(priv)
			}
		})
		predClone := func(cp exec.Plan) exec.PredictedCost {
			if o, ok := orig[cp]; ok {
				return pred(o)
			}
			return exec.PredictedCost{}
		}
		workers[i], roots[i] = exec.Instrument(clone, predClone)
	}
	out, parts, err := fanOut(p, workers, d.Partitions, ctx)
	if err != nil {
		return nil, nil, nil, err
	}
	// Merge step: fold worker fork counters back into the shared store
	// statistics, finalize and sum the metric shards.
	for i := range parts {
		for _, f := range forks[i] {
			snap := f.priv.Snapshot()
			parts[i].Pages = parts[i].Pages.Add(snap)
			f.shared.AddSnapshot(snap)
		}
		roots[i].Finalize()
	}
	merged := roots[0]
	for _, r := range roots[1:] {
		if err := merged.Merge(r); err != nil {
			return nil, nil, nil, err
		}
	}
	return out, merged, parts, nil
}

// fanOut is the one partitioned evaluation loop: workers[i] drains
// parts[i] through exec.Run on its own goroutine (under a fork of ctx
// on the batch plane), the forks' counters fold back into ctx, and the
// partition outputs concatenate in order. They are disjoint ascending
// sub-spans, so the concatenation is already sorted.
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
			start := time.Now()
			results[i], errs[i] = exec.Run(workers[i], part, wctxs[i])
			metrics[i] = PartitionMetrics{Span: part, Elapsed: time.Since(start)}
		}(i, part)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
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
