package seqproc_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	seqproc "repro"
	"repro/internal/algebra"
	"repro/internal/exec"
	"repro/internal/seq"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// example11DB builds the Example 1.1 monitoring database (fixed seed, so
// plans and counters are deterministic).
func example11DB(t *testing.T) (*seqproc.DB, seqproc.Span) {
	t.Helper()
	span := seq.NewSpan(1, 2000)
	quakes, volcanos, err := workload.Monitoring(span, 500, 50, 500)
	if err != nil {
		t.Fatal(err)
	}
	db := seqproc.New()
	db.MustCreateSequence("quakes", quakes, seqproc.Sparse)
	db.MustCreateSequence("volcanos", volcanos, seqproc.Sparse)
	return db, span
}

const example11Query = "project(select(compose(volcanos, prev(quakes)), strength > 7.0), name)"

// table1TestDB builds the Table 1 stock database at scale 1.
func table1TestDB(t *testing.T) (*seqproc.DB, seqproc.Span) {
	t.Helper()
	ibm, dec, hp, err := workload.Table1(1)
	if err != nil {
		t.Fatal(err)
	}
	db := seqproc.New()
	db.MustCreateSequence("ibm", ibm, seqproc.Sparse)
	db.MustCreateSequence("dec", dec, seqproc.Sparse)
	db.MustCreateSequence("hp", hp, seqproc.Dense)
	return db, seqproc.NewSpan(1, 750)
}

const table1Query = "project(compose(dec, select(compose(ibm, hp), ibm.close > hp.close) as ih), dec.close)"

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -run %s -update): %v", t.Name(), err)
	}
	if got+"\n" != string(want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestExplainGolden pins the Explain rendering of the Example 1.1 and
// Table 1 queries.
func TestExplainGolden(t *testing.T) {
	for _, tc := range []struct {
		name  string
		mkdb  func(*testing.T) (*seqproc.DB, seqproc.Span)
		query string
	}{
		{"explain_example11.golden", example11DB, example11Query},
		{"explain_table1.golden", table1TestDB, table1Query},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, span := tc.mkdb(t)
			q, err := db.Query(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			text, err := q.Explain(span)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, tc.name, text)
		})
	}
}

// TestExplainAnalyzeGolden pins the stable (time-free) EXPLAIN ANALYZE
// rendering of the same queries: per-node predicted costs, row counts,
// attributed page accesses and cache counters are all deterministic.
func TestExplainAnalyzeGolden(t *testing.T) {
	for _, tc := range []struct {
		name  string
		mkdb  func(*testing.T) (*seqproc.DB, seqproc.Span)
		query string
	}{
		{"analyze_example11.golden", example11DB, example11Query},
		{"analyze_table1.golden", table1TestDB, table1Query},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, span := tc.mkdb(t)
			q, err := db.Query(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			a, err := q.RunAnalyze(span)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, tc.name, a.RenderStable())
		})
	}
}

// TestCacheCountersAgreeAcrossPlanes checks that a Cache-Strategy-B
// value offset reports its §3.4 cache the same way on both execution
// planes: the Definition 3.2 bound is reached (peak = cap), records
// were put, and every put beyond the resident ones was evicted. A
// backward offset ends its scan holding a full cache. A forward one
// holds fewer once its input runs out, so its span stops short of the
// input's end.
func TestCacheCountersAgreeAcrossPlanes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		query string
		end   seq.Pos
		cap   int
	}{
		{"prev", example11Query, 2000, 1},
		{"voffset+2", "project(select(compose(volcanos, voffset(quakes, 2)), strength > 7.0), name)", 1500, 2},
	} {
		for _, mode := range []exec.BatchMode{exec.BatchAuto, exec.BatchOff} {
			t.Run(fmt.Sprintf("%s/batch=%v", tc.name, mode.Enabled()), func(t *testing.T) {
				db, span := example11DB(t)
				db.SetOptions(seqproc.Options{Batch: mode})
				q, err := db.Query(tc.query)
				if err != nil {
					t.Fatal(err)
				}
				span.End = tc.end
				a, err := q.RunAnalyze(span)
				if err != nil {
					t.Fatal(err)
				}
				var found *exec.NodeMetrics
				a.Root.Walk(func(n *exec.NodeMetrics, _ int) {
					if n.HasCache && strings.HasPrefix(n.Label, "voffset-cacheB") {
						found = n
					}
				})
				if found == nil {
					t.Fatalf("no voffset-cacheB node in the plan:\n%s", a.RenderStable())
				}
				n := found
				if n.CacheCap != tc.cap || n.CachePeak != tc.cap || n.CachePuts == 0 ||
					n.CacheEvictions != n.CachePuts-int64(n.CachePeak) {
					t.Errorf("cache[cap=%d peak=%d puts=%d evict=%d], want cap=peak=%d, puts>0, evict=puts-peak",
						n.CacheCap, n.CachePeak, n.CachePuts, n.CacheEvictions, tc.cap)
				}
			})
		}
	}
}

// TestAnalyzeMatchesEvalRange checks that the instrumented run is the
// real evaluation: its output is entry-identical to the reference
// interpreter (algebra.EvalRange) and to a plain Run.
func TestAnalyzeMatchesEvalRange(t *testing.T) {
	for _, tc := range []struct {
		label string
		mkdb  func(*testing.T) (*seqproc.DB, seqproc.Span)
		query string
	}{
		{"example11", example11DB, example11Query},
		{"table1", table1TestDB, table1Query},
	} {
		t.Run(tc.label, func(t *testing.T) {
			db, span := tc.mkdb(t)
			q, err := db.Query(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			a, err := q.RunAnalyze(span)
			if err != nil {
				t.Fatal(err)
			}
			res, err := q.Run(span)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := algebra.EvalRange(q.Node(), a.Span)
			if err != nil {
				t.Fatal(err)
			}
			got := a.Output.Entries()
			if len(got) != len(ref) || res.Count() != len(ref) {
				t.Fatalf("row counts differ: analyze=%d run=%d evalrange=%d",
					len(got), res.Count(), len(ref))
			}
			for i := range got {
				if got[i].Pos != ref[i].Pos || !got[i].Rec.Equal(ref[i].Rec) {
					t.Fatalf("entry %d differs: analyze %v=%v, evalrange %v=%v",
						i, got[i].Pos, got[i].Rec, ref[i].Pos, ref[i].Rec)
				}
			}
		})
	}
}

// TestAnalyzePageAttribution runs the E3 join under every compose
// strategy and asserts the tentpole's accounting identity: the page
// accesses attributed to individual plan nodes sum exactly to the
// analysis's global delta, which in turn equals the movement of the
// shared per-sequence counters (db.PageStats) over the run.
func TestAnalyzePageAttribution(t *testing.T) {
	span := seq.NewSpan(1, 4000)
	left, err := workload.Stock(workload.StockConfig{Name: "left", Span: span, Density: 0.05, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	right, err := workload.Stock(workload.StockConfig{Name: "right", Span: span, Density: 1.0, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	strategies := []exec.ComposeStrategy{
		exec.ComposeStreamLeft, exec.ComposeStreamRight, exec.ComposeLockStep,
	}
	for _, s := range strategies {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			db := seqproc.New()
			if err := db.CreateSequence("l", left, seqproc.Sparse); err != nil {
				t.Fatal(err)
			}
			if err := db.CreateSequence("r", right, seqproc.Dense); err != nil {
				t.Fatal(err)
			}
			db.SetOptions(seqproc.Options{ForceComposeStrategy: &s})
			q, err := db.Query("select(compose(l, r), l.close > r.close)")
			if err != nil {
				t.Fatal(err)
			}
			var before seqproc.PageStatsSnapshot
			for _, name := range db.Sequences() {
				st, err := db.PageStats(name)
				if err != nil {
					t.Fatal(err)
				}
				before = before.Add(st)
			}
			a, err := q.RunAnalyze(span)
			if err != nil {
				t.Fatal(err)
			}
			var after seqproc.PageStatsSnapshot
			for _, name := range db.Sequences() {
				st, err := db.PageStats(name)
				if err != nil {
					t.Fatal(err)
				}
				after = after.Add(st)
			}
			shared := after.Sub(before)
			if a.GlobalPages != shared {
				t.Errorf("global delta %v != shared counter movement %v", a.GlobalPages, shared)
			}
			if total := a.Root.TotalPages(); total != a.GlobalPages {
				t.Errorf("node-attributed total %v != global delta %v", total, a.GlobalPages)
			}
			if a.GlobalPages.Pages() == 0 {
				t.Error("run touched no pages; attribution test is vacuous")
			}
			// The strategy must be visible in the metrics tree.
			found := false
			a.Root.Walk(func(n *seqproc.NodeMetrics, _ int) {
				if n.Label == fmt.Sprintf("compose-%s((l.close > r.close))", s) ||
					n.Label == fmt.Sprintf("compose-%s", s) {
					found = true
				}
			})
			if !found {
				t.Errorf("compose-%s node not found in metrics tree", s)
			}
		})
	}
}
