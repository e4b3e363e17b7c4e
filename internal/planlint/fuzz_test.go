package planlint_test

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/matview"
	"repro/internal/parallel"
	"repro/internal/planlint"
	"repro/internal/reopt"
	"repro/internal/seq"
	"repro/internal/testgen"
)

var fuzzPlans = flag.Int("planlint.plans", 1200, "number of random plans for the differential fuzz harness")

// TestDifferentialFuzz is the planlint fuzz harness: it generates random
// queries, asserts every one is verifier-clean as a logical tree, runs
// the optimizer in verify mode (which re-checks invariants after every
// rewrite-rule firing, on the Step-2 annotation, and on both physical
// plans), and cross-checks the optimized plan's evaluation against the
// reference interpreter. Any invariant violation or evaluation
// disagreement pinpoints the seed and the offending query.
func TestDifferentialFuzz(t *testing.T) {
	span := seq.NewSpan(-10, 50)
	cfg := testgen.Config{MaxDepth: 5, MaxPos: 32, BaseDensity: 0.5}
	optionSets := []core.Options{
		{},
		{DisableRewrites: true},
		{DisableSpanPropagation: true},
		{ForceNaiveAggregates: true, ForceNaiveValueOffsets: true},
		{DisableSlidingAggregates: true},
	}
	verified, partitioned, substituted := 0, 0, 0
	respliced, reoptTails := 0, 0
	var batched, batchParts int64
	for seed := int64(1); verified < *fuzzPlans; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q, err := testgen.RandomQuery(rng, cfg)
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		if algebra.Divergent(q) {
			continue // the optimizer rejects these up front
		}
		// Every generated tree must be invariant-clean on its own.
		if issues := planlint.Verify(q); len(issues) != 0 {
			t.Fatalf("seed %d: generated query fails verification:\n%v\nquery:\n%s",
				seed, planlint.Error(issues), q)
		}
		opts := optionSets[seed%int64(len(optionSets))]
		opts.Verify = true
		res, err := core.Optimize(q, span, opts)
		if err != nil {
			t.Fatalf("seed %d: optimize (verify mode): %v\nquery:\n%s", seed, err, q)
		}
		want, err := algebra.EvalRange(q, span)
		if err != nil {
			t.Fatalf("seed %d: reference interpreter: %v\nquery:\n%s", seed, err, q)
		}
		got, err := res.Run()
		if err != nil {
			t.Fatalf("seed %d: run: %v\nquery:\n%s\nplan:\n%s", seed, err, q, res.Explain())
		}
		if !testgen.EntriesApproxEqual(got.Entries(), want) {
			t.Fatalf("seed %d: optimized evaluation disagrees with the reference\nquery:\n%s\nplan:\n%s",
				seed, q, res.Explain())
		}
		// Post-run: caches must never have exceeded their configured
		// capacity (the runtime side of Definition 3.2).
		if issues := planlint.VerifyPhysical(res.Plan); len(issues) != 0 {
			t.Fatalf("seed %d: post-run physical verification:\n%v", seed, planlint.Error(issues))
		}
		// Batch-vs-scalar differential: the vectorized data plane must
		// reproduce the scalar interpreter's stream record for record on
		// the same physical plan, and the batch stream itself must uphold
		// the batch/* invariants (span tiling, validity/Null agreement,
		// intern-table isolation).
		if issues := planlint.VerifyBatches(res.Plan, res.RunSpan); len(issues) != 0 {
			t.Fatalf("seed %d: batch verification:\n%v\nquery:\n%s\nplan:\n%s",
				seed, planlint.Error(issues), q, res.Explain())
		}
		if res.RunSpan.Bounded() && !res.RunSpan.IsEmpty() {
			bctx := seq.NewBatchCtx()
			bgot, err := exec.Run(res.Plan, res.RunSpan, bctx)
			if err != nil {
				t.Fatalf("seed %d: batch run: %v\nquery:\n%s\nplan:\n%s", seed, err, q, res.Explain())
			}
			sgot, err := exec.Run(res.Plan, res.RunSpan, nil)
			if err != nil {
				t.Fatalf("seed %d: scalar run: %v\nquery:\n%s\nplan:\n%s", seed, err, q, res.Explain())
			}
			if !testgen.EntriesApproxEqual(bgot.Entries(), sgot.Entries()) {
				t.Fatalf("seed %d: batch evaluation disagrees with scalar\nquery:\n%s\nplan:\n%s",
					seed, q, res.Explain())
			}
			batched += bctx.Batches
		}
		// Partitioned evaluation must agree with the serial stream record
		// for record at any K on any clonable plan, including plans the
		// cost model would never split (ForceK bypasses it). The forced
		// decisions also go through the partition invariant verifier.
		for _, k := range []int{2, 3, 7} {
			dec, err := parallel.ForceK(res.Plan, res.RunSpan, k)
			if err != nil {
				break // unbounded span or unclonable plan: nothing to partition
			}
			if issues := planlint.VerifyPartitions(res.Plan, dec); len(issues) != 0 {
				t.Fatalf("seed %d: K=%d partition verification:\n%v\nplan:\n%s",
					seed, k, planlint.Error(issues), res.Explain())
			}
			pgot, _, _, err := parallel.Run(res.Plan, res.RunSpan, dec, nil, nil)
			if err != nil {
				t.Fatalf("seed %d: K=%d partitioned run: %v\nquery:\n%s\nplan:\n%s",
					seed, k, err, q, res.Explain())
			}
			if !testgen.EntriesApproxEqual(pgot.Entries(), got.Entries()) {
				t.Fatalf("seed %d: K=%d partitioned evaluation disagrees with serial\nquery:\n%s\nplan:\n%s",
					seed, k, q, res.Explain())
			}
			// The partitioned batch plane must agree too: per-worker
			// forked intern tables, concatenated in partition order.
			bctx := seq.NewBatchCtx()
			pbgot, _, _, err := parallel.Run(res.Plan, res.RunSpan, dec, nil, bctx)
			if err != nil {
				t.Fatalf("seed %d: K=%d partitioned batch run: %v\nquery:\n%s\nplan:\n%s",
					seed, k, err, q, res.Explain())
			}
			if !testgen.EntriesApproxEqual(pbgot.Entries(), got.Entries()) {
				t.Fatalf("seed %d: K=%d partitioned batch evaluation disagrees with serial\nquery:\n%s\nplan:\n%s",
					seed, k, q, res.Explain())
			}
			batchParts += bctx.Batches
			if dec.Parallel() {
				partitioned++
			}
		}
		// Mid-run reoptimization differential: splice forcibly at every
		// checkpoint (threshold 0), at an adversarial single midpoint,
		// and with forced tail parallelism at K in {2,3,7}, each on the
		// batch plane and on the scalar one. Verify mode re-runs the
		// planlint physical/cost/partition checks on every spliced plan
		// and the reopt/* splice invariants on the executed segments; the
		// output must match the static plan and the reference record for
		// record regardless.
		if res.RunSpan.Bounded() && !res.RunSpan.IsEmpty() {
			scalarOpts := opts
			scalarOpts.Batch = exec.BatchOff
			sres, err := core.Optimize(q, span, scalarOpts)
			if err != nil {
				t.Fatalf("seed %d: optimize (scalar plane): %v\nquery:\n%s", seed, err, q)
			}
			mid := res.RunSpan.Start + res.RunSpan.Len()/2
			reoptCfgs := []reopt.Config{
				{Enabled: true, CheckEvery: 16, Threshold: 0},
				// Only the forced trigger fires; the interval keeps
				// batches short enough to leave a boundary after mid.
				{Enabled: true, CheckEvery: 8, Threshold: math.Inf(1), ForceAt: &mid},
			}
			for _, k := range []int{2, 3, 7} {
				reoptCfgs = append(reoptCfgs,
					reopt.Config{Enabled: true, CheckEvery: 16, Threshold: 0, TailK: k})
			}
			for _, r := range []*core.Result{res, sres} {
				plane := "batch"
				if r == sres {
					plane = "scalar"
				}
				for ci, rcfg := range reoptCfgs {
					rgot, rep, err := r.RunReoptWith(rcfg)
					if err != nil {
						t.Fatalf("seed %d: %s reopt cfg %d: %v\nquery:\n%s\nplan:\n%s",
							seed, plane, ci, err, q, res.Explain())
					}
					if !testgen.EntriesApproxEqual(rgot.Entries(), got.Entries()) {
						t.Fatalf("seed %d: %s reopt cfg %d disagrees with the static plan\nquery:\n%s\nplan:\n%s\nreport:\n%s",
							seed, plane, ci, q, res.Explain(), rep.Render())
					}
					if !testgen.EntriesApproxEqual(rgot.Entries(), want) {
						t.Fatalf("seed %d: %s reopt cfg %d disagrees with the reference\nquery:\n%s\nplan:\n%s\nreport:\n%s",
							seed, plane, ci, q, res.Explain(), rep.Render())
					}
					respliced += len(rep.Switches)
					for _, s := range rep.Segments {
						if s.K > 1 {
							reoptTails++
						}
					}
				}
			}
		}
		// Materialized-view differential: pre-materialize a random
		// sub-block of the rewritten tree as a view, re-optimize with the
		// registry (verify mode re-checks the matview/* invariants), and
		// the answer must match the no-view evaluation record for record.
		if node, nspan, ok := randomSubBlock(rng, res); ok {
			entries, evalErr := algebra.EvalRange(node, nspan)
			if evalErr == nil {
				kept := entries[:0]
				for _, e := range entries {
					if !e.Rec.IsNull() {
						kept = append(kept, e)
					}
				}
				data, err := seq.NewMaterialized(node.Schema, kept)
				if err != nil {
					t.Fatalf("seed %d: materialize sub-block: %v\n%s", seed, err, node)
				}
				reg := matview.New()
				if _, err := reg.RegisterAt(fmt.Sprintf("fuzz-%d", seed), node, data, nspan, 1); err != nil {
					t.Fatalf("seed %d: register sub-block view: %v\n%s", seed, err, node)
				}
				opts.Views = reg
				vres, err := core.Optimize(q, span, opts)
				if err != nil {
					t.Fatalf("seed %d: optimize with view (verify mode): %v\nquery:\n%s", seed, err, q)
				}
				vgot, err := vres.Run()
				if err != nil {
					t.Fatalf("seed %d: view-backed run: %v\nquery:\n%s\nplan:\n%s", seed, err, q, vres.Explain())
				}
				if !testgen.EntriesApproxEqual(vgot.Entries(), want) {
					t.Fatalf("seed %d: view-backed evaluation disagrees with the no-view reference\nquery:\n%s\nview block:\n%s\nplan:\n%s",
						seed, q, node, vres.Explain())
				}
				substituted += len(vres.Substitutions)
			}
		}
		verified++
	}
	t.Logf("verified %d random plans differentially (%d partitioned cross-checks, %d view substitutions, %d reopt splices, %d reopt parallel tails, %d batches consumed, %d partitioned-batch batches)",
		verified, partitioned, substituted, respliced, reoptTails, batched, batchParts)
	if partitioned == 0 {
		t.Fatalf("no plan ever took the partitioned evaluation path; the parallel differential harness is dead")
	}
	if batched == 0 {
		t.Fatalf("no plan ever consumed a batch; the batch differential harness is dead")
	}
	if batchParts == 0 {
		t.Fatalf("no partitioned run ever consumed a batch; the partitioned batch differential harness is dead")
	}
	if substituted == 0 {
		t.Fatalf("no plan ever substituted a pre-materialized view; the matview differential harness is dead")
	}
	if respliced == 0 {
		t.Fatalf("no run ever spliced a replanned segment; the reopt differential harness is dead")
	}
	if reoptTails == 0 {
		t.Fatalf("no replanned tail ever ran span-partitioned; the reopt TailK harness is dead")
	}
}

// randomSubBlock picks a random non-leaf node of the rewritten tree
// whose access span is bounded and non-empty — a block that can be
// materialized as a view.
func randomSubBlock(rng *rand.Rand, res *core.Result) (*algebra.Node, seq.Span, bool) {
	var nodes []*algebra.Node
	var walk func(n *algebra.Node)
	walk = func(n *algebra.Node) {
		if n.Kind != algebra.KindBase && n.Kind != algebra.KindConst && !algebra.UniverseSensitive(n) {
			if m := res.Annotation.Get(n); m != nil && m.AccessSpan.Bounded() && !m.AccessSpan.IsEmpty() {
				nodes = append(nodes, n)
			}
		}
		for _, in := range n.Inputs {
			walk(in)
		}
	}
	walk(res.Rewritten)
	if len(nodes) == 0 {
		return nil, seq.EmptySpan, false
	}
	n := nodes[rng.Intn(len(nodes))]
	return n, res.Annotation.Get(n).AccessSpan, true
}

// TestVerifyAllSwitch covers the process-wide debug switch used by other
// packages' tests.
func TestVerifyAllSwitch(t *testing.T) {
	core.VerifyAll = true
	defer func() { core.VerifyAll = false }()
	rng := rand.New(rand.NewSource(42))
	cfg := testgen.DefaultConfig()
	for i := 0; i < 25; i++ {
		q, err := testgen.RandomQuery(rng, cfg)
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		if algebra.Divergent(q) {
			continue
		}
		if _, err := core.Optimize(q, seq.NewSpan(0, 20), core.Options{}); err != nil {
			t.Fatalf("optimize under VerifyAll: %v\nquery:\n%s", err, q)
		}
	}
}
