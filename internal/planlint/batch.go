package planlint

import (
	"fmt"
	"math"

	"repro/internal/exec"
	"repro/internal/parallel"
	"repro/internal/seq"
)

// VerifyBatches drives the plan through the vectorized data plane and
// re-derives the batch/* invariant family against want, the plan's
// answer over span from an evaluator that shares no code with the batch
// plane (the reference interpreter, algebra.EvalRange):
//
//	batch/span-tiling     the emitted batch spans tile the scanned range:
//	                      ascending and gap-free (each span starts right
//	                      after its predecessor ends), every valid row's
//	                      position lies inside its batch's span, and a
//	                      batch that fills before the range is exhausted
//	                      ends exactly at its last row — so span
//	                      boundaries are exact, never approximate. A
//	                      batch cut short may span past its last row.
//	batch/validity        the valid rows of the batch stream agree with
//	                      want record for record: a position carries a
//	                      set validity bit iff want has a non-Null
//	                      record there, with equal values, floats within
//	                      the differential harness's tolerance
//	                      (validity-bitmap/Null agreement).
//	batch/intern-isolation
//	                      forked worker contexts own distinct intern
//	                      tables, and cloned plans evaluated under forks
//	                      over a partitioned span reproduce the serial
//	                      batch stream — decoded against each worker's
//	                      own table, so a handle leaking across handle
//	                      spaces turns into a value mismatch here.
//
// Unbounded or empty spans verify trivially (the batch plane rejects an
// unbounded scan).
func VerifyBatches(p exec.Plan, span seq.Span, want []seq.Entry) []Issue {
	if p == nil || !span.Bounded() || span.IsEmpty() {
		return nil
	}
	c := &checker{}
	got := c.checkBatchStream(p, span)
	c.checkBatchEntries(p, got, want)
	c.checkInternIsolation(p, span, got)
	return c.issues
}

// checkBatchStream drains the plan's batch cursor checking the tiling
// invariants batch by batch, and returns the decoded valid rows.
func (c *checker) checkBatchStream(p exec.Plan, span seq.Span) []seq.Entry {
	ctx := seq.NewBatchCtx()
	cur := exec.BatchScanOf(p, span, ctx)
	defer cur.Close()
	var out []seq.Entry
	first := true
	var next seq.Pos
	lastPos := seq.MinPos
	// Exactness of a full batch's end is checked one batch in arrears:
	// only a batch that filled and is followed by another one must end
	// at its last row. A batch cut short (a probe that missed, a leg
	// ending at its boundary) and the final batch absorb the positions
	// after their last row instead.
	var prevSpan seq.Span
	var prevLast seq.Pos
	prevFilled := false
	for {
		b, ok := cur.NextBatch()
		if !ok {
			break
		}
		if b.Span.IsEmpty() || !b.Span.Bounded() {
			c.reportPlan("batch/span-tiling", "§2.3", p, "batch carries empty or unbounded span %s", b.Span)
			return out
		}
		if !first {
			if b.Span.Start != next {
				c.reportPlan("batch/span-tiling", "§2.3", p,
					"batch span %s does not start at %d, right after its predecessor", b.Span, next)
				return out
			}
			if prevFilled && prevSpan.End != prevLast {
				c.reportPlan("batch/span-tiling", "§2.3", p,
					"filled non-final batch span %s does not end at its last row %d", prevSpan, prevLast)
				return out
			}
		}
		first = false
		next = b.Span.End + 1 //seqvet:ignore spanarith verified bounded above
		rows := b.Rows()
		for i := 0; i < rows; i++ {
			if !b.Valid.Get(i) {
				continue
			}
			pos := b.Pos[i]
			if !b.Span.Contains(pos) {
				c.reportPlan("batch/span-tiling", "§2.3", p,
					"valid row at position %d outside its batch span %s", pos, b.Span)
				return out
			}
			if len(out) > 0 && pos <= lastPos {
				c.reportPlan("batch/span-tiling", "§2.3", p,
					"valid row positions not strictly ascending: %d after %d", pos, lastPos)
				return out
			}
			lastPos = pos
			out = append(out, seq.Entry{Pos: pos, Rec: b.Row(i, ctx.Intern)})
		}
		prevSpan, prevFilled = b.Span, rows >= ctx.Size
		if rows > 0 {
			prevLast = b.Pos[rows-1]
		}
	}
	if err := cur.Err(); err != nil {
		c.reportPlan("batch/validity", "§2.3", p, "batch scan failed: %v", err)
	}
	return out
}

// checkBatchEntries compares the decoded batch rows against the
// reference answer record for record.
func (c *checker) checkBatchEntries(p exec.Plan, got, want []seq.Entry) {
	if len(got) != len(want) {
		c.reportPlan("batch/validity", "§2.3", p,
			"batch stream carries %d valid rows, reference %d", len(got), len(want))
		return
	}
	for i := range got {
		if got[i].Pos != want[i].Pos {
			c.reportPlan("batch/validity", "§2.3", p,
				"row %d: batch position %d, reference position %d", i, got[i].Pos, want[i].Pos)
			return
		}
		if !recordsApproxEqual(got[i].Rec, want[i].Rec) {
			c.reportPlan("batch/validity", "§2.3", p,
				"position %d: batch record %v disagrees with reference record %v", got[i].Pos, got[i].Rec, want[i].Rec)
			return
		}
	}
}

// checkInternIsolation partitions the span in two, evaluates a copy of
// the plan per partition (exec.Instrument, as the parallel runner copies
// it) under forked batch contexts, and checks table identity plus the
// concatenated decoded output against the serial batch rows.
func (c *checker) checkInternIsolation(p exec.Plan, span seq.Span, serial []seq.Entry) {
	parts := parallel.SplitSpan(span, 2)
	if len(parts) < 2 {
		return // single-position span: nothing to partition
	}
	root := seq.NewBatchCtx()
	var merged []seq.Entry
	seen := map[*seq.Intern]bool{root.Intern: true}
	for i, part := range parts {
		fork := root.Fork()
		if seen[fork.Intern] {
			c.reportPlan("batch/intern-isolation", "Thm. 3.1", p,
				"forked batch context shares its intern table with another context")
			return
		}
		seen[fork.Intern] = true
		worker, _, err := exec.Instrument(p, nil)
		if err != nil {
			return // unclonable plans are outside the parallel batch path
		}
		entries, err := exec.CollectBatchesIn(exec.BatchScanOf(worker, part, fork), fork, part)
		if err != nil {
			c.reportPlan("batch/intern-isolation", "Thm. 3.1", p,
				"partition %d batch scan failed under a forked context: %v", i, err)
			return
		}
		merged = append(merged, entries...)
	}
	if len(merged) != len(serial) {
		c.reportPlan("batch/intern-isolation", "Thm. 3.1", p,
			"forked partitions decoded %d rows, serial batch stream has %d", len(merged), len(serial))
		return
	}
	for i := range merged {
		if merged[i].Pos != serial[i].Pos || !recordsApproxEqual(merged[i].Rec, serial[i].Rec) {
			c.reportPlan("batch/intern-isolation", "Thm. 3.1", p,
				fmt.Sprintf("row %d decoded under a forked intern table disagrees with the serial stream", i))
			return
		}
	}
}

// recordsApproxEqual compares records with a float tolerance: a worker
// re-accumulates sliding-window sums from its partition start, and the
// reference sums each window afresh, so their floats legitimately round
// differently from the serial stream's (the same tolerance the
// differential harness uses).
// Everything else — including string values decoded through different
// intern tables — must match exactly.
func recordsApproxEqual(a, b seq.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].T == seq.TFloat && b[i].T == seq.TFloat {
			x, y := a[i].AsFloat(), b[i].AsFloat()
			if x == y {
				continue
			}
			d := math.Abs(x - y)
			if d < 1e-9 || d <= 1e-9*math.Max(math.Abs(x), math.Abs(y)) {
				continue
			}
			return false
		}
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}
