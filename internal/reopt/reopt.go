// Package reopt implements mid-run adaptive reoptimization: the ROADMAP
// item "compare predicted vs. actual per-node costs mid-run and switch
// access mode for the remaining span".
//
// A monitored run drains the stream plan through the EXPLAIN ANALYZE
// instrumentation layer, one batch at a time on either data plane, and,
// at the first batch boundary past every checkpoint interval of
// consumed positions, compares each node's accumulated actual cost
// (pages, cache operations, records — exec.NodeMetrics.ActualCost)
// against its §4.1.2/§4.1.3 prediction pro-rated to the span consumed.
// When the relative error exceeds the configured threshold the run
// stops, asks a Planner (implemented by internal/core) to re-run the
// per-block plan generator for the *remaining* span with observed
// densities substituted for the estimates, and splices the new plan in:
// a stream↔probed, Cache-Strategy-A↔B or parallelism-K switch realized
// mid-run.
//
// The splice is legal by the stream-access property (Thm. 3.1): a scan
// of a sub-span equals the restriction of the full scan to that
// sub-span, so evaluating [start, p] with the old plan and [p+1, end]
// with the new one concatenates to exactly the static result. Operator
// caches are finite and rebuilt per segment, so the consumed prefix is
// never re-read and no cache state crosses the switch (the planlint
// reopt/* invariants check both properties). One more condition is
// required of the Planner: the rebuilt tail must keep the original
// request's evaluation universe (meta.AnnotateSubSpan) — the universe
// is part of the query's semantics, and re-deriving it from the
// remaining span alone would confine universe-dependent operators to a
// smaller hull and change the function being computed.
package reopt

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/exec"
	"repro/internal/parallel"
	"repro/internal/seq"
)

// DefaultCheckEvery is the checkpoint interval (in positions) when the
// config does not set one.
const DefaultCheckEvery = 1024

// DefaultThreshold is the relative-error trigger when the config leaves
// Threshold negative (a zero threshold is meaningful: it triggers at
// every checkpoint).
const DefaultThreshold = 0.5

// Config tunes the monitored run.
type Config struct {
	// Enabled turns mid-run reoptimization on (core.Options.Reopt).
	Enabled bool
	// CheckEvery is the checkpoint interval in consumed positions;
	// <= 0 selects DefaultCheckEvery. A checkpoint lands on the first
	// batch boundary at or after each multiple of the interval, and the
	// run's batches hold at most min(seq.DefaultBatchSize, CheckEvery)
	// rows.
	CheckEvery int64
	// Threshold is the relative error |actual − prediction·frac| /
	// max(prediction·frac, 1) beyond which a node triggers a replan.
	// Zero triggers at every checkpoint (the forced-reopt fuzz mode).
	Threshold float64
	// ForceAt, when set, forces one replan decision at the first batch
	// boundary at or after *ForceAt, regardless of interval or
	// threshold — the adversarial-midpoint test hook.
	ForceAt *seq.Pos
	// MaxSwitches caps the number of splices per run; 0 is unlimited.
	MaxSwitches int
	// TailK, when ≥ 2, forces the replanned tail to run span-partitioned
	// at K = TailK where the plan allows it (test hook for the revised-
	// parallelism switch); 0 lets the cost model pick.
	TailK int
}

func (c Config) interval() int64 {
	if c.CheckEvery <= 0 {
		return DefaultCheckEvery
	}
	return c.CheckEvery
}

// Segment is a spliced continuation the Planner produced: a plan for
// exactly the remaining span, its predicted costs, and the partition
// decision for running it.
type Segment struct {
	// Plan evaluates the remaining span.
	Plan exec.Plan
	// Span is the remaining span the plan covers — exactly
	// [consumed+1, end] of the segment being replaced.
	Span seq.Span
	// Pred supplies per-node predicted costs for instrumenting the new
	// plan (nil means no estimates).
	Pred func(exec.Plan) exec.PredictedCost
	// Decision is the partition planner's choice for the tail; a
	// parallel decision ends monitoring and runs the tail on workers.
	Decision *parallel.Decision
	// Mode is the strategy signature of the new plan (StrategySignature).
	Mode string
}

// Planner replans the remaining span when a checkpoint triggers.
// internal/core implements it over the per-block plan generator with
// observed densities substituted for the Step-2 estimates.
type Planner interface {
	// Replan receives the remaining span, the span the current segment
	// has consumed, and the live metrics of the current segment's run.
	// A nil Segment (with nil error) declines the splice: the rebuilt
	// plan would not change mode or parallelism, so the current segment
	// keeps running. force demands a Segment regardless (the ForceAt
	// and threshold-0 fuzz modes, which exercise the splice machinery
	// itself).
	Replan(remaining, consumed seq.Span, metrics *exec.NodeMetrics, force bool) (*Segment, error)
}

// Trigger records why a checkpoint fired.
type Trigger struct {
	// Node is the label of the plan node with the worst relative error.
	Node string
	// Predicted is the node's cumulative predicted stream cost pro-rated
	// to the consumed fraction of the segment span.
	Predicted float64
	// Actual is the node's accumulated actual cost in the same units.
	Actual float64
	// RelErr is |Actual − Predicted| / max(Predicted, 1).
	RelErr float64
	// Forced marks a ForceAt trigger (threshold not consulted).
	Forced bool
}

// Switch records one splice.
type Switch struct {
	// At is the last position the old segment consumed; the new plan
	// starts at At+1.
	At      seq.Pos
	Trigger Trigger
	// OldMode and NewMode are the strategy signatures on each side.
	OldMode, NewMode string
	// NewK is the partition count of the spliced tail (1 = serial).
	NewK int
}

// SegmentReport describes one executed segment of the run.
type SegmentReport struct {
	Span seq.Span
	// Plan is the plan the segment ran (not its metered copy).
	Plan exec.Plan
	Mode string
	K    int
	Rows int64
	// Metrics is the segment's finalized metrics tree; a parallel tail's
	// sums its workers' shards.
	Metrics *exec.NodeMetrics
}

// Report is the reoptimization record of one run.
type Report struct {
	Checkpoints int
	Switches    []Switch
	Segments    []SegmentReport
}

// Switched reports whether the run spliced at least once.
func (r *Report) Switched() bool { return len(r.Switches) > 0 }

// Render returns the report as stable text (counter-derived numbers
// only, no wall-clock), one "reopt:" line per fact, ending with a
// newline. EXPLAIN ANALYZE embeds it.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "reopt: %d checkpoint(s), %d switch(es)\n", r.Checkpoints, len(r.Switches))
	for _, s := range r.Switches {
		forced := ""
		if s.Trigger.Forced {
			forced = " forced"
		}
		fmt.Fprintf(&b, "reopt: switch at pos=%d trigger=%s observed=%.2f predicted=%.2f err=%.2f%s: %s -> %s",
			s.At, s.Trigger.Node, s.Trigger.Actual, s.Trigger.Predicted, s.Trigger.RelErr, forced,
			s.OldMode, s.NewMode)
		if s.NewK > 1 {
			fmt.Fprintf(&b, " K=%d", s.NewK)
		}
		b.WriteByte('\n')
	}
	for i, seg := range r.Segments {
		fmt.Fprintf(&b, "reopt: segment %d/%d span=%s rows=%d mode=%s",
			i+1, len(r.Segments), seg.Span, seg.Rows, seg.Mode)
		if seg.K > 1 {
			fmt.Fprintf(&b, " K=%d", seg.K)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// StrategySignature summarizes the strategy-bearing operators of a plan
// (compose strategies, value-offset and aggregate algorithms,
// materialization points) in preorder — the old→new mode description of
// a switch.
func StrategySignature(p exec.Plan) string {
	var parts []string
	var walk func(n exec.Plan)
	walk = func(n exec.Plan) {
		l := n.Label()
		if strings.HasPrefix(l, "compose-") || strings.HasPrefix(l, "voffset-") ||
			strings.HasPrefix(l, "agg-") || strings.HasPrefix(l, "materialize") {
			parts = append(parts, l)
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(p)
	if len(parts) == 0 {
		return p.Label()
	}
	return strings.Join(parts, ",")
}

// Run executes the plan over the span under checkpoint monitoring,
// splicing in the planner's replacements when triggers fire, and
// returns the materialized output with the reoptimization report. pred
// supplies the optimizer's per-node estimates for the initial plan; w
// prices the observed counters in the same units. ctx picks how the
// root is drained, as in exec.Run; a row-drained root is packed back
// into batches by the row-to-batch adapter, so either way the monitor
// reads one batch stream, and a batch holds at most
// min(DefaultBatchSize, CheckEvery) rows.
//
// Checkpoints land at the end of a batch, so a splice always divides
// the segment span into [start, p] (consumed, already emitted) and
// [p+1, end] (handed to the new plan): batch spans tile the scan span,
// so by Thm. 3.1 the concatenation is record-for-record the static
// evaluation.
func Run(p exec.Plan, span seq.Span, cfg Config, pred func(exec.Plan) exec.PredictedCost,
	w exec.CostWeights, planner Planner, ctx *seq.BatchCtx) (*seq.Materialized, *Report, error) {
	rep := &Report{}
	if span.IsEmpty() {
		out, err := exec.Run(p, span, ctx)
		return out, rep, err
	}
	if !span.Bounded() {
		return nil, nil, fmt.Errorf("reopt: monitored run over unbounded span %v", span)
	}
	interval := cfg.interval()
	bctx := ctx
	if bctx == nil {
		bctx = seq.NewBatchCtx() // the adapter's; its counters are not reported
	}
	bctx.Size = int(min(int64(seq.DefaultBatchSize), interval))
	var entries []seq.Entry
	curPlan, curSpan, curPred := p, span, pred
	curMode := StrategySignature(p)
	forcedPending := cfg.ForceAt != nil

	for {
		instr, root, err := exec.Instrument(curPlan, curPred)
		if err != nil {
			return nil, nil, err
		}
		var cur seq.BatchCursor
		if ctx != nil {
			cur = exec.BatchScanOf(instr, curSpan, bctx)
		} else {
			cur = seq.BatchCursorFrom(instr.Scan(curSpan), curSpan, instr.Info().Schema, bctx)
		}
		consumed := curSpan.Start - 1
		nextCheck := curSpan.Start + interval - 1
		segStartRows := len(entries)
		var spliced *Segment
		var trig Trigger
		var replanErr error
		for {
			b, ok := cur.NextBatch()
			if !ok {
				break
			}
			bctx.Batches++
			bctx.Rows += int64(b.ValidRows())
			entries = b.AppendEntries(entries, bctx.Intern)
			consumed = b.Span.End
			force := forcedPending && consumed >= *cfg.ForceAt
			check := consumed >= nextCheck
			if !force && !check {
				continue
			}
			if check {
				rep.Checkpoints++
				for nextCheck <= consumed {
					nextCheck += interval
				}
			}
			if consumed >= curSpan.End {
				continue // nothing remains to replan
			}
			if cfg.MaxSwitches > 0 && len(rep.Switches) >= cfg.MaxSwitches {
				continue
			}
			t, hit := evaluate(root, curSpan, consumed, w, cfg.Threshold)
			if force {
				t.Forced, hit = true, true
			}
			if !hit {
				continue
			}
			if force {
				forcedPending = false
			}
			remaining := seq.Span{Start: consumed + 1, End: curSpan.End}
			prefix := seq.Span{Start: curSpan.Start, End: consumed}
			mustSplice := t.Forced || cfg.Threshold == 0
			seg, err := planner.Replan(remaining, prefix, root, mustSplice)
			if err != nil {
				replanErr = fmt.Errorf("reopt: replanning %v: %w", remaining, err)
				break
			}
			if seg == nil {
				continue // planner declined: same mode, keep streaming
			}
			spliced, trig = seg, t
			break
		}
		err = cur.Err()
		cur.Close()
		root.Finalize()
		if replanErr != nil {
			return nil, nil, replanErr
		}
		if err != nil {
			return nil, nil, err
		}
		if spliced == nil {
			rep.Segments = append(rep.Segments, SegmentReport{
				Span: curSpan, Plan: curPlan, Mode: curMode, K: 1,
				Rows: int64(len(entries) - segStartRows), Metrics: root,
			})
			break
		}
		prefix := seq.Span{Start: curSpan.Start, End: consumed}
		rep.Segments = append(rep.Segments, SegmentReport{
			Span: prefix, Plan: curPlan, Mode: curMode, K: 1,
			Rows: int64(len(entries) - segStartRows), Metrics: root,
		})
		newK := 1
		if spliced.Decision.Parallel() {
			newK = spliced.Decision.K
		}
		rep.Switches = append(rep.Switches, Switch{
			At: consumed, Trigger: trig,
			OldMode: curMode, NewMode: spliced.Mode, NewK: newK,
		})
		if newK > 1 {
			// A revised-parallelism switch: the tail runs span-partitioned
			// on workers; monitoring ends (workers have private metric
			// shards, not a single live tree to checkpoint).
			out, tailRoot, _, err := parallel.Run(spliced.Plan, spliced.Span, spliced.Decision, spliced.Pred, ctx)
			if err != nil {
				return nil, nil, err
			}
			tail := out.Entries()
			entries = append(entries, tail...)
			rep.Segments = append(rep.Segments, SegmentReport{
				Span: spliced.Span, Plan: spliced.Plan, Mode: spliced.Mode,
				K: newK, Rows: int64(len(tail)), Metrics: tailRoot,
			})
			break
		}
		curPlan, curSpan, curPred, curMode = spliced.Plan, spliced.Span, spliced.Pred, spliced.Mode
	}
	out, err := seq.FromSortedEntries(p.Info().Schema, entries)
	if err != nil {
		return nil, nil, err
	}
	return out, rep, nil
}

// evaluate walks the live metrics tree and returns the node with the
// worst relative error, and whether that error is beyond the threshold.
// The prediction side is each node's cumulative predicted stream cost
// pro-rated to the fraction of the segment span consumed; the actual
// side prices the node's accumulated counters. A zero threshold always
// triggers; a forced checkpoint reports the worst node either way.
func evaluate(root *exec.NodeMetrics, span seq.Span, consumed seq.Pos,
	w exec.CostWeights, threshold float64) (Trigger, bool) {
	if threshold < 0 {
		threshold = DefaultThreshold
	}
	done := seq.Span{Start: span.Start, End: consumed}
	frac := float64(done.Len()) / float64(span.Len())
	if frac > 1 {
		frac = 1
	}
	var best Trigger
	var worst *exec.NodeMetrics
	root.Walk(func(n *exec.NodeMetrics, _ int) {
		if !n.Predicted.Known {
			return
		}
		predFrac := n.Predicted.Stream * frac
		actual := n.ActualCost(w)
		denom := predFrac
		if denom < 1 {
			denom = 1
		}
		rel := math.Abs(actual-predFrac) / denom
		if worst == nil || rel > best.RelErr {
			best = Trigger{Predicted: predFrac, Actual: actual, RelErr: rel}
			worst = n
		}
	})
	if worst == nil {
		return best, false
	}
	worst.Labels()
	best.Node = worst.Label
	return best, best.RelErr > threshold || threshold == 0
}
