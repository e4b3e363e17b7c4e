package experiments

import (
	"fmt"
	"strings"
	"time"

	seqproc "repro"
	"repro/internal/core"
	"repro/internal/matview"
	"repro/internal/seq"
	"repro/internal/testgen"
)

// MatviewPoint is one (experiment, phase) measurement of the
// materialized-view sweep, as seqbench -matview prints them (and writes
// them with -matview-out). Each experiment contributes a cold row (the first
// evaluation, which also materializes the result as a view) and a warm
// row (the identical query re-optimized against the view registry).
type MatviewPoint struct {
	Experiment string `json:"experiment"`
	Query      string `json:"query"`
	Span       string `json:"span"`
	// Phase is "cold" (recomputation, view being built) or "warm"
	// (answered through the registry).
	Phase   string `json:"phase"`
	NsPerOp int64  `json:"ns_per_op"`
	Rows    int    `json:"rows"`
	// PagesTotal counts page touches of one run across every store the
	// plan reads — base sequences cold, the view store warm.
	PagesTotal int64 `json:"pages_total"`
	// Substitutions is the number of view substitutions the optimizer
	// adopted (warm rows; 0 cold).
	Substitutions int `json:"substitutions"`
	// ViewCost and RecomputeCost are the §4 cost-model estimates of the
	// adopted substitution; PredictedWinner names the side the model
	// picked before either ran.
	ViewCost        float64 `json:"view_cost,omitempty"`
	RecomputeCost   float64 `json:"recompute_cost,omitempty"`
	PredictedWinner string  `json:"predicted_winner,omitempty"`
	// SpeedupVsCold is cold-ns / this-ns (warm rows only).
	SpeedupVsCold float64 `json:"speedup_vs_cold,omitempty"`
	PagesSaved    int64   `json:"pages_saved,omitempty"`
	ViewRecords   int     `json:"view_records,omitempty"`
	ViewHits      int64   `json:"view_hits,omitempty"`
}

// matviewIDs are the experiments the sweep covers: E1 exercises an
// exact-match view over a compose/select/project block, E4 a windowed
// aggregate whose recomputation is expensive relative to a view scan.
var matviewIDs = []string{"e1", "e4"}

// MatviewSweep evaluates each experiment's representative query cold,
// registers the result as a materialized view over the rewritten block,
// and re-runs the query against the registry, verifying the warm output
// matches the cold output record for record. ids defaults to the
// experiments with a view-friendly repeated query (E1 and E4).
func MatviewSweep(ids []string, quick bool) ([]MatviewPoint, error) {
	if len(ids) == 0 {
		ids = matviewIDs
	}
	reps := 3
	if quick {
		reps = 1
	}
	var out []MatviewPoint
	for _, id := range ids {
		setup, ok := parallelSetups[strings.ToLower(id)]
		if !ok {
			return nil, fmt.Errorf("experiments: no matview sweep for %q", id)
		}
		points, err := matviewQuery(setup, strings.ToLower(id), quick, reps)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		out = append(out, points...)
	}
	return out, nil
}

func matviewQuery(setup func(bool) (*seqproc.DB, string, seq.Span, error), id string, quick bool, reps int) ([]MatviewPoint, error) {
	db, query, span, err := setup(quick)
	if err != nil {
		return nil, err
	}
	optimize := func(views *matview.Registry) (*core.Result, error) {
		q, err := db.Query(query)
		if err != nil {
			return nil, err
		}
		return core.Optimize(q.Node(), span, core.Options{Views: views})
	}
	// measure evaluates res reps times, returning best wall-clock, the
	// output of the last run, and the pages one run touches (taken from
	// an instrumented EXPLAIN ANALYZE pass so the view store counts too).
	measure := func(res *core.Result) (int64, *seq.Materialized, int64, error) {
		var m *seq.Materialized
		best := int64(1<<63 - 1)
		for i := 0; i < reps; i++ {
			start := time.Now()
			m, err = res.Run()
			if err != nil {
				return 0, nil, 0, err
			}
			if ns := time.Since(start).Nanoseconds(); ns < best {
				best = ns
			}
		}
		a, err := res.RunAnalyze()
		if err != nil {
			return 0, nil, 0, err
		}
		return best, m, a.GlobalPages.Pages(), nil
	}

	cold, err := optimize(nil)
	if err != nil {
		return nil, err
	}
	coldNs, coldOut, coldPages, err := measure(cold)
	if err != nil {
		return nil, err
	}
	coldPt := MatviewPoint{
		Experiment: id, Query: query, Span: span.String(), Phase: "cold",
		NsPerOp: coldNs, Rows: coldOut.Count(), PagesTotal: coldPages,
	}

	reg := matview.New()
	view, err := reg.Register(id+"-rep", cold.Rewritten, coldOut, cold.RunSpan)
	if err != nil {
		return nil, err
	}

	warm, err := optimize(reg)
	if err != nil {
		return nil, err
	}
	if len(warm.Substitutions) == 0 {
		return nil, fmt.Errorf("warm plan did not substitute the view:\n%s", warm.Explain())
	}
	warmNs, warmOut, warmPages, err := measure(warm)
	if err != nil {
		return nil, err
	}
	if !testgen.EntriesApproxEqual(warmOut.Entries(), coldOut.Entries()) {
		return nil, fmt.Errorf("view-backed run differs from recomputation (%d vs %d rows)",
			warmOut.Count(), coldOut.Count())
	}
	sub := warm.Substitutions[0]
	warmPt := MatviewPoint{
		Experiment: id, Query: query, Span: span.String(), Phase: "warm",
		NsPerOp: warmNs, Rows: warmOut.Count(), PagesTotal: warmPages,
		Substitutions:   len(warm.Substitutions),
		ViewCost:        sub.ViewCost,
		RecomputeCost:   sub.RecomputeCost,
		PredictedWinner: "view",
		SpeedupVsCold:   float64(coldNs) / float64(warmNs),
		PagesSaved:      coldPages - warmPages,
		ViewRecords:     view.Counters().Records,
		ViewHits:        view.Hits(),
	}
	if sub.ViewCost >= sub.RecomputeCost {
		warmPt.PredictedWinner = "recompute"
	}
	return []MatviewPoint{coldPt, warmPt}, nil
}

// RenderMatview formats sweep points as the table seqbench prints next
// to the JSON artifact.
func RenderMatview(points []MatviewPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-5s %-12s %-9s %-8s %-6s %-5s %s\n",
		"exp", "phase", "ns/op", "pages", "speedup", "rows", "subs", "cost (view vs recompute)")
	for _, p := range points {
		speedup, cost := "", ""
		if p.Phase == "warm" {
			speedup = fmt.Sprintf("%.2f", p.SpeedupVsCold)
			cost = fmt.Sprintf("%.2f vs %.2f → %s", p.ViewCost, p.RecomputeCost, p.PredictedWinner)
		}
		fmt.Fprintf(&b, "%-4s %-5s %-12d %-9d %-8s %-6d %-5d %s\n",
			p.Experiment, p.Phase, p.NsPerOp, p.PagesTotal, speedup, p.Rows, p.Substitutions, cost)
	}
	return b.String()
}
