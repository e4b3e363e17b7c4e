package experiments

import (
	"strings"
	"testing"
)

// analyzeSection is one "-- label --" block of Analyze's report: the
// query text it analyzed and the EXPLAIN ANALYZE lines under it.
type analyzeSection struct {
	label, query string
	report       []string
}

// parseAnalyze splits an Analyze report into its sections. A section is
// a "-- label --" line, the query (possibly several lines), then the
// report from its "analyze span=" line up to the next blank line.
func parseAnalyze(text string) []analyzeSection {
	var out []analyzeSection
	inReport := false
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, "-- ") && strings.HasSuffix(line, " --"):
			out = append(out, analyzeSection{label: strings.TrimSuffix(strings.TrimPrefix(line, "-- "), " --")})
			inReport = false
		case len(out) == 0 || line == "":
			inReport = false
		case strings.HasPrefix(line, "analyze span="):
			inReport = true
			fallthrough
		case inReport:
			s := &out[len(out)-1]
			s.report = append(s.report, line)
		default:
			s := &out[len(out)-1]
			s.query += line + " "
		}
	}
	return out
}

// TestAnalyzeEveryExperiment pins what seqbench -analyze prints for
// each experiment: its variants' labels in order, the query every
// variant analyzes, and an operator tree with a base scan under each.
func TestAnalyzeEveryExperiment(t *testing.T) {
	table1Join := "project(compose(dec, select(compose(ibm, hp), ibm.close > hp.close) as ih), dec.close)"
	want := map[string]struct {
		query  string
		labels []string
	}{
		"e1": {"project(select(compose(volcanos, prev(quakes)), strength > 7.0), name)",
			[]string{"E1: Example 1.1 volcano/earthquake query"}},
		"e2": {table1Join, []string{
			"E2: span propagation disabled (Figure 3.A, full scans)",
			"E2: span propagation enabled (Figure 3.B, restricted scans)"}},
		"e3": {"select(compose(l, r), l.close > r.close)", []string{
			"E3: forced stream-left (stream sparse, probe dense)",
			"E3: forced stream-right (stream dense, probe sparse)",
			"E3: forced lockstep (stream both)",
			"E3: optimizer choice"}},
		"e4": {"sum(ibm, close, 32)", []string{
			"E4: naive windowed aggregate (forced)",
			"E4: Cache-Strategy-A (forced, sliding disabled)",
			"E4: optimizer choice"}},
		"e5": {"prev(select(compose(l, r), l.close > r.close))", []string{
			"E5: naive backward walk (forced)",
			"E5: Cache-Strategy-B"}},
		"e6": {"compose(a, compose(b, compose(c, d)))",
			[]string{"E6: four-way join block (DP-chosen order and strategies)"}},
		"e7": {"sum(prev(select(compose(a, b), a.close > b.close)), a.close, 16)",
			[]string{"E7: stream-access pipeline (bounded caches over one scan)"}},
		"e8": {"project( select(offset(compose(dec, compose(ibm, hp) as ih), -3), ibm.close > hp.close and dec.close > 103.0), dec.close)",
			[]string{"E8: rewrites enabled", "E8: rewrites disabled"}},
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			w, ok := want[e.ID]
			if !ok {
				t.Fatalf("no expectation for %s", e.ID)
			}
			text, err := Analyze(e.ID, true)
			if err != nil {
				t.Fatal(err)
			}
			sections := parseAnalyze(text)
			if len(sections) != len(w.labels) {
				t.Fatalf("%d sections, want %d:\n%s", len(sections), len(w.labels), text)
			}
			for i, s := range sections {
				if s.label != w.labels[i] {
					t.Errorf("section %d label %q, want %q", i, s.label, w.labels[i])
				}
				if got := strings.Join(strings.Fields(s.query), " "); got != w.query {
					t.Errorf("%s: query %q, want %q", s.label, got, w.query)
				}
				tree := false
				for _, line := range s.report {
					if strings.Contains(line, "scan(") && strings.Contains(line, "act[") {
						tree = true
					}
				}
				if !tree {
					t.Errorf("%s: no operator tree with a base scan:\n%s", s.label, strings.Join(s.report, "\n"))
				}
			}
		})
	}
	if _, err := Analyze("e99", true); err == nil {
		t.Error("Analyze(e99) succeeded")
	}
}
