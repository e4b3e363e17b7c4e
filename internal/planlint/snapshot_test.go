package planlint

import (
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/matview"
	"repro/internal/seq"
	"repro/internal/storage"
)

func snapFixture(t *testing.T) (*seq.Materialized, *storage.Versioned) {
	t.Helper()
	schema, err := seq.NewSchema(seq.Field{Name: "v", Type: seq.TInt})
	if err != nil {
		t.Fatal(err)
	}
	entries := []seq.Entry{
		{Pos: 1, Rec: seq.Record{seq.Int(1)}},
		{Pos: 2, Rec: seq.Record{seq.Int(2)}},
	}
	data, err := seq.NewMaterialized(schema, entries)
	if err != nil {
		t.Fatal(err)
	}
	v, err := storage.NewVersioned(data, storage.KindSparse, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return data, v
}

func hasIssue(issues []Issue, id, substr string) bool {
	for _, is := range issues {
		if is.Invariant == id && strings.Contains(is.Detail, substr) {
			return true
		}
	}
	return false
}

func TestVerifySnapshotClean(t *testing.T) {
	_, v := snapFixture(t)
	leaf := algebra.Base("s", v.SnapshotAt(0))
	if issues := VerifySnapshot(leaf, nil, 0); len(issues) != 0 {
		t.Fatalf("clean snapshot plan reported %v", issues)
	}
}

func TestVerifySnapshotPinnedLeaf(t *testing.T) {
	data, _ := snapFixture(t)
	// A live (non-snapshot) sequence as a leaf must be rejected.
	leaf := algebra.Base("s", data)
	issues := VerifySnapshot(leaf, nil, 0)
	if !hasIssue(issues, "snapshot/pinned-leaf", "not an epoch-pinned snapshot") {
		t.Fatalf("live leaf passed: %v", issues)
	}
}

func TestVerifySnapshotSingleEpoch(t *testing.T) {
	_, v := snapFixture(t)
	if err := v.Append(seq.Entry{Pos: 3, Rec: seq.Record{seq.Int(3)}}, 1); err != nil {
		t.Fatal(err)
	}
	// Leaves pinned at different epochs inside one plan.
	left := algebra.Base("s", v.SnapshotAt(0))
	right := algebra.Base("s2", v.SnapshotAt(1))
	join, err := algebra.Compose(left, right, nil, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	issues := VerifySnapshot(join, nil, 0)
	if !hasIssue(issues, "snapshot/single-epoch", "mixes page versions") {
		t.Fatalf("mixed-epoch plan passed: %v", issues)
	}
}

func TestVerifySnapshotViewEpoch(t *testing.T) {
	data, v := snapFixture(t)
	leaf := algebra.Base("s", v.SnapshotAt(0))
	c, err := expr.NewCol(leaf.Schema, "v")
	if err != nil {
		t.Fatal(err)
	}
	pred, err := expr.NewBin(expr.OpGt, c, expr.Literal(seq.Int(0)))
	if err != nil {
		t.Fatal(err)
	}
	block, err := algebra.Select(algebra.Base("s", data), pred)
	if err != nil {
		t.Fatal(err)
	}
	r := matview.New()
	view, err := r.RegisterAt("hot", block, data, seq.NewSpan(1, 2), 5)
	if err != nil {
		t.Fatal(err)
	}
	sub := &matview.Substitution{View: view, Block: block, Need: seq.NewSpan(1, 2)}

	// Reader pinned before the view existed.
	if issues := VerifySnapshot(leaf, []*matview.Substitution{sub}, 0); !hasIssue(issues, "snapshot/view-epoch", "reader epoch 0") {
		t.Fatalf("pre-creation view use passed: %v", issues)
	}
	// Reader inside the validity window — but the leaf must match too.
	okLeaf := algebra.Base("s", v.SnapshotAt(6))
	if issues := VerifySnapshot(okLeaf, []*matview.Substitution{sub}, 6); len(issues) != 0 {
		t.Fatalf("valid view use reported %v", issues)
	}
	// Reader pinned after invalidation.
	r.InvalidateBaseFrom("s", 7)
	lateLeaf := algebra.Base("s", v.SnapshotAt(8))
	if issues := VerifySnapshot(lateLeaf, []*matview.Substitution{sub}, 8); !hasIssue(issues, "snapshot/view-epoch", "reader epoch 8") {
		t.Fatalf("post-invalidation view use passed: %v", issues)
	}
}
