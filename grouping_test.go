package seqproc

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/workload"
)

var valSchema = MustSchema(Field{Name: "v", Type: TFloat})

// createVals registers a sparse one-column sequence holding vals at
// their positions.
func createVals(t *testing.T, db *DB, name string, vals map[Pos]float64) {
	t.Helper()
	es := make([]Entry, 0, len(vals))
	for p, v := range vals {
		es = append(es, Entry{Pos: p, Rec: Record{Float(v)}})
	}
	createEntries(t, db, name, es)
}

// createEntries registers a sparse one-column sequence of float v.
func createEntries(t *testing.T, db *DB, name string, es []Entry) {
	t.Helper()
	data, err := NewData(valSchema, es)
	if err != nil {
		t.Fatal(err)
	}
	db.MustCreateSequence(name, data, Sparse)
}

// testGrouping is a grouping "runs" of three members.
func testGrouping(t *testing.T) (*DB, *Grouping) {
	t.Helper()
	db := New()
	createVals(t, db, "run-a", map[Pos]float64{1: 5, 2: 9, 3: 4})
	createVals(t, db, "run-b", map[Pos]float64{1: 2, 2: 3})
	createVals(t, db, "run-c", map[Pos]float64{2: 8, 5: 11})
	g := db.NewGrouping("runs")
	for _, name := range []string{"run-a", "run-b", "run-c"} {
		if err := g.Add(name); err != nil {
			t.Fatal(err)
		}
	}
	return db, g
}

func TestGroupingAddValidation(t *testing.T) {
	db := New()
	createVals(t, db, "x", map[Pos]float64{1: 1})
	other, err := NewData(MustSchema(Field{Name: "w", Type: TInt}), nil)
	if err != nil {
		t.Fatal(err)
	}
	db.MustCreateSequence("y", other, Sparse)

	g := db.NewGrouping("runs")
	if err := g.Add(""); err == nil {
		t.Error("empty name must fail")
	}
	if err := g.Add("ghost"); err == nil {
		t.Error("unknown sequence must fail")
	}
	if err := g.Add("x"); err != nil {
		t.Fatal(err)
	}
	if err := g.Add("x"); err == nil {
		t.Error("duplicate must fail")
	}
	if err := g.Add("y"); err == nil {
		t.Error("schema mismatch must fail")
	}
	if !g.Schema().Equal(valSchema) {
		t.Error("schema accessor wrong")
	}
	if got := g.Members(); !reflect.DeepEqual(got, []string{"x"}) {
		t.Errorf("Members = %v", got)
	}
}

func TestGroupingWhere(t *testing.T) {
	db, g := testGrouping(t)
	// Which runs ever exceed 7?
	names, err := g.Where("select(runs, v > 7)", NewSpan(1, 10))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(names, []string{"run-a", "run-c"}) {
		t.Errorf("Where = %v", names)
	}
	// Nobody exceeds 100.
	names, err = g.Where("select(runs, v > 100)", NewSpan(1, 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Errorf("Where = %v", names)
	}
	// The grouping's name shadows a sequence of that name; other names
	// still resolve to DB sequences.
	createVals(t, db, "runs", map[Pos]float64{1: 1000, 2: 1000})
	createVals(t, db, "limit", map[Pos]float64{1: 4, 2: 8.5})
	names, err = g.Where("select(compose(runs as r, limit as l), r.v > l.v)", NewSpan(1, 10))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(names, []string{"run-a"}) {
		t.Errorf("Where over a shadowed name and a shared sequence = %v", names)
	}
}

func TestGroupingApply(t *testing.T) {
	_, g := testGrouping(t)
	results, err := g.Apply("select(runs, v > 0)", NewSpan(1, 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].Name != "run-a" || results[0].Result.Count() != 3 {
		t.Errorf("run-a = %v", results[0])
	}
	if results[1].Name != "run-b" || results[1].Result.Count() != 2 {
		t.Errorf("run-b = %v", results[1])
	}
	// Errors propagate with member context.
	_, err = g.Apply("select(runs, nosuch > 1)", NewSpan(1, 10))
	if err == nil || !strings.Contains(err.Error(), `member "run-a"`) {
		t.Errorf("template error must propagate with its member, got %v", err)
	}
	if _, err := g.Apply("select(", NewSpan(1, 10)); err == nil {
		t.Error("a template that does not parse must fail")
	}
}

func TestGroupingAggregateEach(t *testing.T) {
	db, g := testGrouping(t)
	// Whole-run maximum per member.
	got, err := g.AggregateEach("max(runs, v)", NewSpan(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got["run-a"].AsFloat() != 9 || got["run-b"].AsFloat() != 3 || got["run-c"].AsFloat() != 11 {
		t.Errorf("AggregateEach = %v", got)
	}
	// Multi-attribute templates are rejected.
	data, err := workload.Stock(workload.StockConfig{Name: "s", Span: NewSpan(1, 10), Density: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	db.MustCreateSequence("s", data, Sparse)
	g2 := db.NewGrouping("stocks")
	if err := g2.Add("s"); err != nil {
		t.Fatal(err)
	}
	if _, err := g2.AggregateEach("stocks", NewSpan(1, 10)); err == nil {
		t.Error("multi-attribute aggregate template must be rejected")
	}
}

// A realistic use: which experiment runs have a 3-sample moving average
// above threshold at any point (sensor drift detection).
func TestGroupingWithWindows(t *testing.T) {
	db := New()
	g := db.NewGrouping("runs")
	for _, name := range []string{"stable", "drifting"} {
		vals := map[Pos]float64{}
		v := 10.0
		for p := Pos(1); p <= 50; p++ {
			if name == "drifting" && p > 25 {
				v += 0.8
			}
			vals[p] = v
		}
		createVals(t, db, name, vals)
		if err := g.Add(name); err != nil {
			t.Fatal(err)
		}
	}
	names, err := g.Where("select(avg(runs, v, 3), avg > 15)", NewSpan(1, 60))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(names, []string{"drifting"}) {
		t.Errorf("Where = %v", names)
	}
}

// A member is a DB sequence: a template reads the version current when
// it runs, so an Append to a member shows in the next query.
func TestGroupingSeesAppend(t *testing.T) {
	db, g := testGrouping(t)
	const tmpl = "select(runs, v > 7)"
	for i, want := range [][]string{{"run-a", "run-c"}, {"run-a", "run-b", "run-c"}} {
		if i == 1 {
			if err := db.Append("run-b", 3, Record{Float(50)}); err != nil {
				t.Fatal(err)
			}
		}
		names, err := g.Where(tmpl, NewSpan(1, 10))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(names, want) {
			t.Errorf("Where = %v, want %v", names, want)
		}
	}
}

// Member reads are engine reads: they touch the members' own pages and
// move their page counters.
func TestGroupingPageStats(t *testing.T) {
	db, g := testGrouping(t)
	for _, name := range g.Members() {
		if _, err := db.TakePageStats(name); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.Where("select(runs, v > 7)", NewSpan(1, 10)); err != nil {
		t.Fatal(err)
	}
	for _, name := range g.Members() {
		st, err := db.TakePageStats(name)
		if err != nil {
			t.Fatal(err)
		}
		if st.Pages() == 0 {
			t.Errorf("%s: the grouping read moved no page counters (%v)", name, st)
		}
	}
}
