package planlint_test

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/exec"
	"repro/internal/planlint"
	"repro/internal/seq"
)

// positionsExcept returns lo..hi without the skipped positions.
func positionsExcept(lo, hi seq.Pos, skip ...seq.Pos) []seq.Pos {
	var out []seq.Pos
	for p := lo; p <= hi; p++ {
		kept := true
		for _, s := range skip {
			kept = kept && p != s
		}
		if kept {
			out = append(out, p)
		}
	}
	return out
}

// leafOf scans an intBase node's sequence.
func leafOf(n *algebra.Node) exec.Plan { return exec.NewLeaf(n.Name, n.Seq, seq.AllSpan) }

// TestBatchTilingShortBatches: a batch cut short of a full batch may
// span past its last row. A stream-left compose whose probe at the last
// position of a streamed batch misses, and a Concat whose left leg's
// data stops short of the boundary, both tile their spans exactly with
// such batches.
func TestBatchTilingShortBatches(t *testing.T) {
	span := seq.NewSpan(1, 3000)

	l := intBase(t, "l", positionsExcept(1, 3000)...)
	r := intBase(t, "r", positionsExcept(1, 3000, 1024)...)
	c, err := algebra.Compose(l, r, nil, "l", "r")
	if err != nil {
		t.Fatal(err)
	}
	compose, err := exec.NewCompose(leafOf(l), leafOf(r), nil, c.Schema, exec.ComposeStreamLeft)
	if err != nil {
		t.Fatal(err)
	}
	want, err := algebra.EvalRange(c, span)
	if err != nil {
		t.Fatal(err)
	}
	if issues := planlint.VerifyBatches(compose, span, want); len(issues) != 0 {
		t.Errorf("compose-stream-left with a missed probe at 1024:\n%v", planlint.Error(issues))
	}

	// The left leg is valid up to the boundary, its data stops at 1500.
	head, err := intBase(t, "head", positionsExcept(1, 1500)...).Seq.(*seq.Materialized).WithSpan(seq.NewSpan(1, 2000))
	if err != nil {
		t.Fatal(err)
	}
	tail := intBase(t, "tail", positionsExcept(2001, 3000)...)
	concat, err := exec.NewConcat(exec.NewLeaf("head", head, seq.AllSpan), leafOf(tail), 2000)
	if err != nil {
		t.Fatal(err)
	}
	want, err = algebra.EvalRange(intBase(t, "all", append(positionsExcept(1, 1500), positionsExcept(2001, 3000)...)...), span)
	if err != nil {
		t.Fatal(err)
	}
	if issues := planlint.VerifyBatches(concat, span, want); len(issues) != 0 {
		t.Errorf("concat whose left leg stops at 1500 of boundary 2000:\n%v", planlint.Error(issues))
	}
}

// overshoot serves a materialized sequence's batches with the first
// batch's span stretched three positions past its last row, and the
// second batch's start moved along so the spans still tile.
type overshoot struct{ *seq.Materialized }

func (o overshoot) ScanBatches(span seq.Span, ctx *seq.BatchCtx) seq.BatchCursor {
	return &overshootCursor{BatchCursor: o.Materialized.ScanBatches(span, ctx)}
}

type overshootCursor struct {
	seq.BatchCursor
	n int
}

func (c *overshootCursor) NextBatch() (*seq.Batch, bool) {
	b, ok := c.BatchCursor.NextBatch()
	if ok {
		c.n++
		switch c.n {
		case 1:
			b.Span.End += 3
		case 2:
			b.Span.Start += 3
		}
	}
	return b, ok
}

// TestBatchTilingFilledBatchOvershoots: a filled non-final batch whose
// span runs past its last row is still reported.
func TestBatchTilingFilledBatchOvershoots(t *testing.T) {
	span := seq.NewSpan(1, 3000)
	base := intBase(t, "s", append(positionsExcept(1, 1024), positionsExcept(1030, 3000)...)...)
	want, err := algebra.EvalRange(base, span)
	if err != nil {
		t.Fatal(err)
	}
	leaf := exec.NewLeaf("s", overshoot{base.Seq.(*seq.Materialized)}, seq.AllSpan)
	wantInvariant(t, planlint.VerifyBatches(leaf, span, want),
		"batch/span-tiling", "filled non-final batch span [1, 1027] does not end at its last row 1024")
}
