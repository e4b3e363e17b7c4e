package planlint_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/planlint"
	"repro/internal/seq"
	"repro/internal/storage"
	"repro/internal/storage/disk"
	"repro/internal/testgen"
)

// TestBatchDiskDifferential runs the batch-vs-scalar differential with
// every base sequence living on the durable disk tier: random queries
// are generated as usual, their in-memory bases are persisted into a
// disk DB (alternating dense and sparse layouts), and the plans execute
// over buffer-pool-backed snapshots. Those are storage.Snapshots whose
// pages come through the pool, so every disk leaf scans natively on the
// batch plane — through the metering wrapper, with the batch/*
// invariants on top — and none reaches the row-to-batch adapter.
func TestBatchDiskDifferential(t *testing.T) {
	db, err := disk.Open(t.TempDir(), disk.Config{
		PageSize: 512, RecordsPerPage: 4, PoolPages: 64, CheckpointInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	span := seq.NewSpan(-10, 50)
	cfg := testgen.Config{MaxDepth: 4, MaxPos: 32, BaseDensity: 0.5}
	const plans = 60
	verified := 0
	var batches int64
	for seed := int64(1); verified < plans; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q, err := testgen.RandomQuery(rng, cfg)
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		if algebra.Divergent(q) {
			continue
		}
		// Persist every base onto the disk tier and point the query at
		// the recovered snapshots.
		nbase := 0
		var swapErr error
		var walk func(n *algebra.Node)
		walk = func(n *algebra.Node) {
			for _, in := range n.Inputs {
				walk(in)
			}
			if swapErr != nil || n.Kind != algebra.KindBase {
				return
			}
			nbase++
			name := fmt.Sprintf("dseq-%d-%d", seed, nbase)
			mat, ok := n.Seq.(*seq.Materialized)
			if !ok {
				return
			}
			kind := storage.KindSparse
			if nbase%2 == 0 {
				kind = storage.KindDense
			}
			if err := db.CreateSequence(name, mat, kind); err != nil {
				swapErr = fmt.Errorf("create %s: %w", name, err)
				return
			}
			s, ok := db.Seq(name)
			if !ok {
				swapErr = fmt.Errorf("sequence %s vanished after create", name)
				return
			}
			var leaf seq.Sequence = s.Latest()
			if _, ok := leaf.(seq.BatchScanner); !ok {
				swapErr = fmt.Errorf("disk leaf %s (%T) does not scan in batches", name, leaf)
				return
			}
			n.Seq = leaf
		}
		walk(q)
		if swapErr != nil {
			t.Fatalf("seed %d: %v", seed, swapErr)
		}
		res, err := core.Optimize(q, span, core.Options{Verify: true})
		if err != nil {
			t.Fatalf("seed %d: optimize: %v\nquery:\n%s", seed, err, q)
		}
		if !res.RunSpan.Bounded() || res.RunSpan.IsEmpty() {
			continue
		}
		if issues := planlint.VerifyBatches(res.Plan, res.RunSpan); len(issues) != 0 {
			t.Fatalf("seed %d: disk-backed batch verification:\n%v\nquery:\n%s\nplan:\n%s",
				seed, planlint.Error(issues), q, res.Explain())
		}
		sgot, err := exec.Run(res.Plan, res.RunSpan, nil)
		if err != nil {
			t.Fatalf("seed %d: scalar run: %v\nplan:\n%s", seed, err, res.Explain())
		}
		ctx := seq.NewBatchCtx()
		bgot, err := exec.Run(res.Plan, res.RunSpan, ctx)
		if err != nil {
			t.Fatalf("seed %d: batch run: %v\nplan:\n%s", seed, err, res.Explain())
		}
		if !testgen.EntriesApproxEqual(bgot.Entries(), sgot.Entries()) {
			t.Fatalf("seed %d: disk-backed batch evaluation disagrees with scalar\nquery:\n%s\nplan:\n%s",
				seed, q, res.Explain())
		}
		batches += ctx.Batches
		verified++
	}
	t.Logf("verified %d disk-backed plans batch-vs-scalar (%d batches consumed)", verified, batches)
	if batches == 0 {
		t.Fatalf("no disk-backed plan ever consumed a batch; the disk batch differential is dead")
	}
}
