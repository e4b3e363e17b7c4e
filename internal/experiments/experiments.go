// Package experiments implements the reproduction harness: one
// experiment per table/figure of the paper (DESIGN.md E1–E8). Each
// experiment generates its workload, runs the competing strategies, and
// returns a Table whose rows mirror what the paper claims qualitatively;
// cmd/seqbench prints them and EXPERIMENTS.md records them.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	seqproc "repro"
	"repro/internal/seq"
	"repro/internal/workload"
)

// Table is one experiment's result: a titled grid of rows.
type Table struct {
	ID     string
	Title  string
	Claim  string // the paper's claim being checked
	Header []string
	Rows   [][]string
	// Finding summarizes whether the measured shape matches the claim;
	// filled by the experiment itself from its own measurements.
	Finding string
}

// Render formats the table for terminals and markdown-ish logs.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	fmt.Fprintf(&b, "claim: %s\n\n", t.Claim)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Finding != "" {
		fmt.Fprintf(&b, "\nfinding: %s\n", t.Finding)
	}
	return b.String()
}

// Experiment is a runnable reproduction unit.
type Experiment struct {
	ID    string
	Name  string
	Run   func() (*Table, error)
	Quick func() (*Table, error) // reduced sizes for tests/CI
}

// All returns every experiment in id order.
func All() []Experiment {
	out := []Experiment{
		{"e1", "Example 1.1 / Figure 1: sequence vs relational plan", E1, E1Quick},
		{"e2", "Table 1 / Figure 3: span propagation", E2, E2Quick},
		{"e3", "Figure 4: access modes and join strategies", E3, E3Quick},
		{"e4", "Figure 5.A: Cache-Strategy-A for windowed aggregates", E4, E4Quick},
		{"e5", "Figure 5.B: Cache-Strategy-B for value offsets", E5, E5Quick},
		{"e6", "Figures 6-7 / Property 4.1: optimizer complexity", E6, E6Quick},
		{"e7", "Theorem 3.1: the stream-access property", E7, E7Quick},
		{"e8", "Section 3.1: rewrite ablation", E8, E8Quick},
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// setups builds each experiment's representative query as (db, query
// text, span): the query EXPLAIN ANALYZE shows (Analyze) and the
// calibration round prices (ReoptCalibrationRound).
var setups = map[string]func(quick bool) (*seqproc.DB, string, seq.Span, error){
	"e1": func(quick bool) (*seqproc.DB, string, seq.Span, error) {
		n := 4000
		if quick {
			n = 500
		}
		span := seq.NewSpan(1, int64(n)*4)
		quakes, volcanos, err := workload.Monitoring(span, n, n/10, int64(n))
		if err != nil {
			return nil, "", span, err
		}
		db := seqproc.New()
		db.MustCreateSequence("quakes", quakes, seqproc.Sparse)
		db.MustCreateSequence("volcanos", volcanos, seqproc.Sparse)
		return db, "project(select(compose(volcanos, prev(quakes)), strength > 7.0), name)", span, nil
	},
	"e2": func(quick bool) (*seqproc.DB, string, seq.Span, error) {
		scale := int64(40)
		if quick {
			scale = 4
		}
		db, err := table1DB(scale)
		return db, "project(compose(dec, select(compose(ibm, hp), ibm.close > hp.close) as ih), dec.close)",
			seq.NewSpan(1, 750*scale), err
	},
	"e3": func(quick bool) (*seqproc.DB, string, seq.Span, error) {
		n := int64(50_000)
		d1 := 0.02
		if quick {
			n = 4_000
			d1 = 0.05
		}
		span := seq.NewSpan(1, n)
		left, err := workload.Stock(workload.StockConfig{Name: "left", Span: span, Density: d1, Seed: 11})
		if err != nil {
			return nil, "", span, err
		}
		right, err := workload.Stock(workload.StockConfig{Name: "right", Span: span, Density: 1.0, Seed: 12})
		if err != nil {
			return nil, "", span, err
		}
		db := seqproc.New()
		db.MustCreateSequence("l", left, seqproc.Sparse)
		db.MustCreateSequence("r", right, seqproc.Dense)
		return db, "select(compose(l, r), l.close > r.close)", span, nil
	},
	"e4": func(quick bool) (*seqproc.DB, string, seq.Span, error) {
		n := int64(50_000)
		if quick {
			n = 4_000
		}
		span := seq.NewSpan(1, n)
		data, err := workload.Stock(workload.StockConfig{Name: "ibm", Span: span, Density: 1, Seed: 21})
		if err != nil {
			return nil, "", span, err
		}
		db := seqproc.New()
		db.MustCreateSequence("ibm", data, seqproc.Dense)
		return db, "sum(ibm, close, 32)", span, nil
	},
	"e5": func(quick bool) (*seqproc.DB, string, seq.Span, error) {
		n := int64(20_000)
		if quick {
			n = 2_000
		}
		span := seq.NewSpan(1, n)
		l, err := workload.Stock(workload.StockConfig{Name: "l", Span: span, Density: 1, Seed: 51})
		if err != nil {
			return nil, "", span, err
		}
		r, err := workload.Stock(workload.StockConfig{Name: "r", Span: span, Density: 1, Seed: 52})
		if err != nil {
			return nil, "", span, err
		}
		db := seqproc.New()
		db.MustCreateSequence("l", l, seqproc.Dense)
		db.MustCreateSequence("r", r, seqproc.Dense)
		return db, "prev(select(compose(l, r), l.close > r.close))", span, nil
	},
	"e6": func(quick bool) (*seqproc.DB, string, seq.Span, error) {
		span := seq.NewSpan(1, 64)
		db := seqproc.New()
		for _, name := range []string{"a", "b", "c", "d"} {
			data, err := workload.Stock(workload.StockConfig{Name: name, Span: span, Density: 1, Seed: 31})
			if err != nil {
				return nil, "", span, err
			}
			db.MustCreateSequence(name, data, seqproc.Dense)
		}
		return db, "compose(a, compose(b, compose(c, d)))", span, nil
	},
	"e7": func(quick bool) (*seqproc.DB, string, seq.Span, error) {
		n := int64(20_000)
		if quick {
			n = 2_000
		}
		span := seq.NewSpan(1, n)
		a, err := workload.Stock(workload.StockConfig{Name: "a", Span: span, Density: 0.9, Seed: 41})
		if err != nil {
			return nil, "", span, err
		}
		b, err := workload.Stock(workload.StockConfig{Name: "b", Span: span, Density: 0.9, Seed: 42})
		if err != nil {
			return nil, "", span, err
		}
		db := seqproc.New()
		db.MustCreateSequence("a", a, seqproc.Sparse)
		db.MustCreateSequence("b", b, seqproc.Sparse)
		return db, "sum(prev(select(compose(a, b), a.close > b.close)), a.close, 16)", span, nil
	},
	"e8": func(quick bool) (*seqproc.DB, string, seq.Span, error) {
		scale := int64(40)
		if quick {
			scale = 4
		}
		db, err := table1DB(scale)
		return db, `project(
	    select(offset(compose(dec, compose(ibm, hp) as ih), -3),
	           ibm.close > hp.close and dec.close > 103.0),
	    dec.close)`, seq.NewSpan(1, 750*scale), err
	},
}

// ms formats a duration in milliseconds.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000.0)
}

// ratio formats a/b with a guard.
func ratio(a, b float64) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", a/b)
}

func itoa(n int64) string { return fmt.Sprintf("%d", n) }
