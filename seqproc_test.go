package seqproc

import (
	"strings"
	"testing"

	"repro/internal/seq"
	"repro/internal/workload"
)

func stockDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	ibm, dec, hp, err := workload.Table1(1)
	if err != nil {
		t.Fatal(err)
	}
	db.MustCreateSequence("ibm", ibm, Sparse)
	db.MustCreateSequence("dec", dec, Sparse)
	db.MustCreateSequence("hp", hp, Dense)
	return db
}

func TestCreateAndDescribe(t *testing.T) {
	db := stockDB(t)
	names := db.Sequences()
	if len(names) != 3 || names[0] != "dec" || names[2] != "ibm" {
		t.Errorf("sequences = %v", names)
	}
	info, err := db.Describe("ibm")
	if err != nil {
		t.Fatal(err)
	}
	if info.Span != NewSpan(200, 500) {
		t.Errorf("ibm span = %v", info.Span)
	}
	if _, err := db.Describe("ghost"); err == nil {
		t.Error("unknown sequence must fail")
	}
	if err := db.CreateSequence("ibm", nil, Sparse); err == nil {
		t.Error("duplicate must fail")
	}
	if err := db.CreateSequence("", nil, Sparse); err == nil {
		t.Error("empty name must fail")
	}
	if err := db.DropSequence("hp"); err != nil {
		t.Fatal(err)
	}
	if len(db.Sequences()) != 2 {
		t.Error("drop did not take")
	}
	if err := db.DropSequence("hp"); err == nil {
		t.Error("double drop must fail")
	}
}

func TestQueryRunAndExplain(t *testing.T) {
	db := stockDB(t)
	q, err := db.Query("select(compose(ibm, hp), ibm.close > hp.close)")
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Run(NewSpan(1, 750))
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() == 0 {
		t.Fatal("expected some results")
	}
	if res.Schema().NumFields() != 6 {
		t.Errorf("schema = %v", res.Schema())
	}
	for _, e := range res.Entries() {
		if !(e.Pos >= 200 && e.Pos <= 500) {
			t.Fatalf("result outside IBM span at %d", e.Pos)
		}
	}
	plan, err := q.Explain(NewSpan(1, 750))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"stream cost", "compose-", "scan("} {
		if !strings.Contains(plan, want) {
			t.Errorf("explain missing %q:\n%s", want, plan)
		}
	}
	if _, err := db.Query("select(nothere, x > 1)"); err == nil {
		t.Error("bad query must fail")
	}
}

func TestQueryProbeAndStats(t *testing.T) {
	db := stockDB(t)
	q, err := db.Query("sum(ibm, close, 5)")
	if err != nil {
		t.Fatal(err)
	}
	got, err := q.Probe(NewSpan(200, 500), []Pos{250, 9999})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Pos != 250 {
		t.Errorf("probe = %v", got)
	}
	st, err := q.Stats(NewSpan(200, 500))
	if err != nil {
		t.Fatal(err)
	}
	if st.BlocksOptimized != 0 {
		t.Errorf("no join blocks expected, got %d", st.BlocksOptimized)
	}
	q2, _ := db.Query("compose(compose(ibm, dec), hp)")
	st, err = q2.Stats(NewSpan(1, 750))
	if err != nil {
		t.Fatal(err)
	}
	if st.JoinPlansEvaluated == 0 || st.PeakPlansStored == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPageStatsAndReset(t *testing.T) {
	db := stockDB(t)
	q, _ := db.Query("select(ibm, close > 0)")
	if _, err := q.Run(NewSpan(200, 500)); err != nil {
		t.Fatal(err)
	}
	st, err := db.PageStats("ibm")
	if err != nil {
		t.Fatal(err)
	}
	if st.Pages() == 0 {
		t.Error("expected page accesses")
	}
	db.ResetPageStats()
	st, _ = db.PageStats("ibm")
	if st.Pages() != 0 {
		t.Error("reset failed")
	}
	if _, err := db.PageStats("ghost"); err == nil {
		t.Error("unknown sequence must fail")
	}
}

func TestQueryNodeAndBase(t *testing.T) {
	db := stockDB(t)
	q, err := db.Query("select(ibm, close > 1)")
	if err != nil {
		t.Fatal(err)
	}
	if q.Node() == nil || q.Node().String() != q.String() || !strings.Contains(q.String(), "ibm") {
		t.Errorf("query accessors wrong: %q", q.String())
	}
}

func TestResultMaterializedRoundTrip(t *testing.T) {
	db := stockDB(t)
	q, _ := db.Query("project(ibm, close)")
	res, err := q.Run(NewSpan(200, 300))
	if err != nil {
		t.Fatal(err)
	}
	// Register the result as a view and query it again.
	if err := db.CreateSequence("ibm_close", res.Materialized(), Sparse); err != nil {
		t.Fatal(err)
	}
	q2, _ := db.Query("rsum(ibm_close, close)")
	res2, err := q2.Run(NewSpan(200, 300))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Count() == 0 {
		t.Error("view query returned nothing")
	}
	if res.Plan() == "" || res.OptimizerStats().RulesFired < 0 {
		t.Error("result metadata missing")
	}
}

func TestAppendAndMonitor(t *testing.T) {
	db := New()
	quakes, err := seq.NewMaterialized(workload.QuakeSchema, []seq.Entry{
		{Pos: 1, Rec: Record{Float(6.0)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	db.MustCreateSequence("quakes", quakes, Sparse)

	mon, err := db.Monitor("select(quakes, strength > 7.0)", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Nothing new yet.
	out, err := mon.Poll(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Errorf("poll = %v", out)
	}
	// A big quake arrives.
	if err := db.Append("quakes", 5, Record{Float(8.1)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Append("quakes", 7, Record{Float(5.0)}); err != nil {
		t.Fatal(err)
	}
	out, err = mon.Poll(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Pos != 5 {
		t.Errorf("poll = %v", out)
	}
	if mon.Position() != 7 {
		t.Errorf("position = %d", mon.Position())
	}
	// Polling backward is a no-op.
	out, _ = mon.Poll(3)
	if out != nil {
		t.Error("backward poll must be empty")
	}
	// Append validation.
	if err := db.Append("quakes", 6, Record{Float(1)}); err == nil {
		t.Error("append inside the range must fail")
	}
	if err := db.Append("ghost", 9, Record{Float(1)}); err == nil {
		t.Error("unknown sequence must fail")
	}
	// Dense sequences are not appendable.
	dense, _ := seq.NewMaterialized(workload.QuakeSchema, []seq.Entry{{Pos: 1, Rec: Record{Float(1)}}})
	db.MustCreateSequence("d", dense, Dense)
	if err := db.Append("d", 9, Record{Float(1)}); err == nil {
		t.Error("dense append must fail")
	}
}

// A Monitor is bound before the writes it reports on: on both tiers its
// leaves must resolve to the version current at each Poll.
func TestMonitorTrailingAggregate(t *testing.T) {
	tiers := []struct {
		name string
		open func(t *testing.T) *DB
	}{
		{"memory", func(*testing.T) *DB { return New() }},
		{"durable", func(t *testing.T) *DB {
			db, err := Open(t.TempDir(), nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.Close() })
			return db
		}},
	}
	for _, tier := range tiers {
		t.Run(tier.name, func(t *testing.T) { monitorTrailingAggregate(t, tier.open(t)) })
	}
}

func monitorTrailingAggregate(t *testing.T, db *DB) {
	data, err := seq.NewMaterialized(workload.StockSchema, nil)
	if err != nil {
		t.Fatal(err)
	}
	db.MustCreateSequence("ticks", data, Sparse)
	mon, err := db.Monitor("select(avg(ticks, close, 3), avg > 100)", 0)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(close float64) Record {
		return Record{Float(close), Float(close), Int(100)}
	}
	for _, e := range []struct {
		pos   Pos
		close float64
	}{{1, 90}, {2, 95}, {3, 130}} {
		if err := db.Append("ticks", e.pos, mk(e.close)); err != nil {
			t.Fatal(err)
		}
	}
	out, err := mon.Poll(3)
	if err != nil {
		t.Fatal(err)
	}
	// avg(1..3) = 105 at position 3 only.
	if len(out) != 1 || out[0].Pos != 3 {
		t.Errorf("poll = %v", out)
	}
	// More arrivals: window slides correctly across polls.
	for _, e := range []struct {
		pos   Pos
		close float64
	}{{4, 130}, {5, 40}} {
		if err := db.Append("ticks", e.pos, mk(e.close)); err != nil {
			t.Fatal(err)
		}
	}
	out, err = mon.Poll(5)
	if err != nil {
		t.Fatal(err)
	}
	// avg@4 = (95+130+130)/3 ≈ 118 > 100; avg@5 = 100 -> not > 100.
	if len(out) != 1 || out[0].Pos != 4 {
		t.Errorf("poll = %v", out)
	}
}

// Monitor's cost claim: a poll over one new position reads the window
// around it, not the base. The records a poll reads stay at the
// window's width and its pages at the index depth plus a few, whether
// the base holds 1 000 records or 20 000.
func TestMonitorPollCost(t *testing.T) {
	for _, n := range []int{1_000, 20_000} {
		db := New()
		es := make([]Entry, n)
		for i := range es {
			es[i] = Entry{Pos: Pos(i + 1), Rec: Record{Float(float64(i%10) / 10)}}
		}
		createEntries(t, db, "s", es)
		mon, err := db.Monitor("select(avg(s, v, 4), avg > 0.9)", Pos(n))
		if err != nil {
			t.Fatal(err)
		}
		for poll := 1; poll <= 3; poll++ {
			pos := Pos(n + poll)
			if err := db.Append("s", pos, Record{Float(0.5)}); err != nil {
				t.Fatal(err)
			}
			if _, err := db.TakePageStats("s"); err != nil {
				t.Fatal(err)
			}
			if _, err := mon.Poll(pos); err != nil {
				t.Fatal(err)
			}
			st, err := db.TakePageStats("s")
			if err != nil {
				t.Fatal(err)
			}
			if records := st.SeqRecords + st.ProbeRecords; records > 4 || st.Pages() > 16 {
				t.Errorf("n=%d poll %d read %d records and %d pages, want at most 4 and 16 (%v)",
					n, poll, records, st.Pages(), st)
			}
		}
	}
}

func TestCollapseExpandThroughEngine(t *testing.T) {
	db := stockDB(t)
	// Weekly average of IBM, then back to daily, composed with daily.
	q, err := db.Query("collapse(ibm, avg(close), 5)")
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Run(NewSpan(0, 200))
	if err != nil {
		t.Fatal(err)
	}
	// IBM spans [200, 500]: weeks 40..100.
	if res.Count() != 61 {
		t.Errorf("weekly count = %d, want 61", res.Count())
	}
	for _, e := range res.Entries() {
		if e.Pos < 40 || e.Pos > 100 {
			t.Fatalf("weekly position %d outside [40, 100]", e.Pos)
		}
	}
	q2, err := db.Query(`select(compose(ibm as d, expand(collapse(ibm, avg(close), 5), 5) as w),
	                            d.close > w.avg)`)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := q2.Run(NewSpan(1, 750))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Count() == 0 {
		t.Error("expected some above-weekly-average days")
	}
	plan, err := q2.Explain(NewSpan(1, 750))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"collapse(", "expand(k=5)"} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
}

func TestDivergentQueryRejected(t *testing.T) {
	db := stockDB(t)
	// A cumulative aggregate over prev(...) of a base is fine...
	q, err := db.Query("rsum(ibm, close)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Run(NewSpan(200, 210)); err != nil {
		t.Fatal(err)
	}
	// ...but a whole-sequence aggregate of prev(ibm) is divergent (prev
	// extends support forever to the right).
	q2, err := db.Query("sum(prev(ibm), close)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q2.Run(NewSpan(200, 210)); err == nil {
		t.Error("divergent query must be rejected")
	}
}

func TestReorganize(t *testing.T) {
	db := stockDB(t)
	before, _ := db.Describe("ibm")
	if err := db.Reorganize("ibm", Dense); err != nil {
		t.Fatal(err)
	}
	after, err := db.Describe("ibm")
	if err != nil {
		t.Fatal(err)
	}
	if after.Span != before.Span {
		t.Errorf("span changed: %v vs %v", after.Span, before.Span)
	}
	// Queries still work and dense probing is O(1) page per probe.
	q, _ := db.Query("select(ibm, close > 0)")
	res, err := q.Run(NewSpan(200, 500))
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() == 0 {
		t.Error("no results after reorganize")
	}
	// Dense sequences are not appendable; sparse ones are again after
	// reorganizing back.
	if err := db.Append("ibm", 600, Record{Float(1), Float(1), Int(1)}); err == nil {
		t.Error("dense append must fail")
	}
	if err := db.Reorganize("ibm", Sparse); err != nil {
		t.Fatal(err)
	}
	if err := db.Append("ibm", 600, Record{Float(1), Float(1), Int(1)}); err != nil {
		t.Errorf("sparse append failed: %v", err)
	}
	if err := db.Reorganize("ghost", Dense); err == nil {
		t.Error("unknown sequence must fail")
	}
}

func TestExplainStreamAccessAnnotation(t *testing.T) {
	db := stockDB(t)
	// Force Cache-Strategy-A so the window cache contributes 8 slots
	// (the default sliding accumulator needs no FIFO cache at all).
	db.SetOptions(Options{DisableSlidingAggregates: true})
	q, _ := db.Query("sum(prev(ibm), close, 8)")
	plan, err := q.Explain(NewSpan(200, 500))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "stream-access (single scan, cache-finite)") {
		t.Errorf("missing stream-access note:\n%s", plan)
	}
	if !strings.Contains(plan, "cache budget 9 records") {
		t.Errorf("cache budget (8-window + 1 prev slot) missing:\n%s", plan)
	}
	db.SetOptions(Options{})
	// A whole-sequence aggregate defeats the stream-access property.
	q2, _ := db.Query("sum(ibm, close)")
	plan, err = q2.Explain(NewSpan(200, 500))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "not stream-access") {
		t.Errorf("missing non-stream note:\n%s", plan)
	}
}
