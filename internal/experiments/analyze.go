package experiments

import (
	"fmt"
	"strings"

	seqproc "repro"
	"repro/internal/exec"
)

// analyzeVariant is one option set Analyze runs an experiment's
// representative query under.
type analyzeVariant struct {
	label string
	opts  seqproc.Options
}

// analyzeVariants lists, per experiment, the strategies the experiment
// compares: E3 shows all three compose strategies plus the optimizer's
// own pick, E4/E5 show the naive and cached evaluators, so the
// page-access difference the experiment measures is visible operator by
// operator.
var analyzeVariants = map[string][]analyzeVariant{
	"e1": {{"E1: Example 1.1 volcano/earthquake query", seqproc.Options{}}},
	"e2": {
		{"E2: span propagation disabled (Figure 3.A, full scans)",
			seqproc.Options{DisableSpanPropagation: true, ForceComposeStrategy: strategyPtr(exec.ComposeLockStep)}},
		{"E2: span propagation enabled (Figure 3.B, restricted scans)",
			seqproc.Options{ForceComposeStrategy: strategyPtr(exec.ComposeLockStep)}},
	},
	"e3": {
		{"E3: forced stream-left (stream sparse, probe dense)", seqproc.Options{ForceComposeStrategy: strategyPtr(exec.ComposeStreamLeft)}},
		{"E3: forced stream-right (stream dense, probe sparse)", seqproc.Options{ForceComposeStrategy: strategyPtr(exec.ComposeStreamRight)}},
		{"E3: forced lockstep (stream both)", seqproc.Options{ForceComposeStrategy: strategyPtr(exec.ComposeLockStep)}},
		{"E3: optimizer choice", seqproc.Options{}},
	},
	"e4": {
		{"E4: naive windowed aggregate (forced)", seqproc.Options{ForceNaiveAggregates: true}},
		{"E4: Cache-Strategy-A (forced, sliding disabled)", seqproc.Options{DisableSlidingAggregates: true}},
		{"E4: optimizer choice", seqproc.Options{}},
	},
	"e5": {
		{"E5: naive backward walk (forced)", seqproc.Options{ForceNaiveValueOffsets: true}},
		{"E5: Cache-Strategy-B", seqproc.Options{}},
	},
	"e6": {{"E6: four-way join block (DP-chosen order and strategies)", seqproc.Options{}}},
	"e7": {{"E7: stream-access pipeline (bounded caches over one scan)", seqproc.Options{}}},
	"e8": {
		{"E8: rewrites enabled", seqproc.Options{}},
		{"E8: rewrites disabled", seqproc.Options{DisableRewrites: true}},
	},
}

func strategyPtr(s exec.ComposeStrategy) *exec.ComposeStrategy { return &s }

// Analyze runs the experiment's representative query (setups) under
// EXPLAIN ANALYZE once per variant, each over a freshly built database,
// and returns the per-node predicted-vs-actual reports (see
// OBSERVABILITY.md).
func Analyze(id string, quick bool) (string, error) {
	id = strings.ToLower(id)
	setup, ok := setups[id]
	if !ok {
		return "", fmt.Errorf("experiments: no analyzer for %q", id)
	}
	var b strings.Builder
	for _, v := range analyzeVariants[id] {
		db, query, span, err := setup(quick)
		if err != nil {
			return "", err
		}
		db.SetOptions(v.opts)
		q, err := db.Query(query)
		if err != nil {
			return "", err
		}
		text, err := q.ExplainAnalyze(span)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "-- %s --\n%s\n%s\n\n", v.label, query, text)
	}
	return b.String(), nil
}
