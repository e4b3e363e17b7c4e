package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/seq"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// firstOps encodes the first n operations of every stream of a freshly
// generated workload, plus its base data.
func firstOps(t *testing.T, name string, seed int64, n int) []byte {
	t.Helper()
	w, err := generate(name, seed, true)
	if err != nil {
		t.Fatal(err)
	}
	var b []byte
	for _, base := range w.Bases {
		for _, e := range base.Data.Entries() {
			b = appendEntry(b, e)
		}
	}
	for _, s := range w.Streams {
		for i := 0; i < n; i++ {
			o, ok := s.next()
			if !ok {
				break
			}
			b = o.encode(b)
		}
	}
	return b
}

func TestGeneratorIsSeeded(t *testing.T) {
	for _, name := range workloadNames {
		a, b, c := firstOps(t, name, 1, 300), firstOps(t, name, 1, 300), firstOps(t, name, 2, 300)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed produced different data or operations", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 produced identical data and operations", name)
		}
	}
}

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// The highest of p99/p95/p90/p75 with at least ten samples beyond it.
	for _, tc := range []struct {
		n, p int
		v    float64
	}{{0, 100, 0}, {9, 100, 9}, {39, 100, 39}, {40, 75, 30}, {100, 90, 90}, {199, 90, 180}, {200, 95, 190}, {999, 95, 950}, {1000, 99, 990}} {
		if p, v := tail(xs[:tc.n]); p != tc.p || v != tc.v {
			t.Errorf("tail of 1..%d = p%d, %v; want p%d, %v", tc.n, p, v, tc.p, tc.v)
		}
	}
	if got := percentile(xs, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 50, End: 70},
		{ID: 3, Parent: 1, Start: 15, End: 25},
		{ID: 4, Parent: 0, Start: 72, End: 90, Shadow: true}, // timed in isolation: not the parent's work
		{ID: 5, Parent: 0, Start: 95, End: 120},              // runs past its parent: only the overlap counts
	}
	want := []int64{100 - 30 - 20 - 5, 30 - 10, 20, 10, 18, 25}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got, want[i])
		}
	}
	if got := layerOf("core.optimize"); got != "core" {
		t.Errorf("layerOf = %q", got)
	}
}

func TestChecksum(t *testing.T) {
	rows := make([]seq.Entry, 50)
	for i := range rows {
		rows[i] = seq.Entry{Pos: int64(10 + 2*i), Rec: seq.Record{seq.Float(float64(i) / 3), seq.Int(int64(i))}}
	}
	ref := newRefSeries(seq.NewSpan(1, 200), rows)
	// Any sub-span's answer is the checksum of exactly the rows inside it.
	for _, sp := range [][2]int64{{1, 200}, {10, 10}, {11, 11}, {30, 61}, {109, 200}} {
		var inside []seq.Entry
		for _, e := range rows {
			if e.Pos >= sp[0] && e.Pos <= sp[1] {
				inside = append(inside, e)
			}
		}
		n, sum, err := ref.answer(sp[0], sp[1])
		if err != nil || n != len(inside) || sum != checksum(inside) {
			t.Errorf("answer(%v) = %d rows, %x, %v; want %d rows, %x", sp, n, sum, err, len(inside), checksum(inside))
		}
	}
	if _, _, err := ref.answer(0, 10); err == nil {
		t.Error("a span outside the evaluated one must not be answered")
	}
	swapped := append([]seq.Entry(nil), rows...)
	swapped[3], swapped[4] = swapped[4], swapped[3]
	if checksum(swapped) == checksum(rows) {
		t.Error("checksum does not depend on row order")
	}
	changed := append([]seq.Entry(nil), rows...)
	changed[7] = seq.Entry{Pos: rows[7].Pos, Rec: seq.Record{seq.Float(2.3333), seq.Int(8)}}
	if checksum(changed) == checksum(rows) {
		t.Error("checksum does not depend on values")
	}
	if checksum([]seq.Entry{{Pos: 1, Rec: seq.Record{seq.Int(1)}}}) == checksum([]seq.Entry{{Pos: 1, Rec: seq.Record{seq.Float(1)}}}) {
		t.Error("checksum does not depend on value types")
	}
}

// TestCorruptedAnswerFails feeds the checker wrong expectations and
// wants failures counted, both per connection and in failed_share.
func TestCorruptedAnswerFails(t *testing.T) {
	e, err := setup("plan_bound", 1, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	for _, ref := range e.oracle {
		for i := range ref.pre {
			ref.pre[i]++ // every non-empty answer's checksum is now off
		}
	}
	r, err := e.runSocket(0.2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed == 0 || r.firstFailure == "" {
		t.Fatalf("no failure counted over %d operations against a corrupted oracle", r.attempted)
	}
	if len(r.queryMs) >= r.attempted {
		t.Error("a failed operation still contributed a latency sample")
	}
	res := &result{Workload: "plan_bound", Metrics: make(map[string]measured)}
	reportSocket(res, &measurement{samples: r.samples})
	if share := res.Metrics["client.failed_share"].Value; share <= 0 {
		t.Errorf("failed_share = %v, want > 0", share)
	}
}

// TestCrashImageWithCheckpointInFlight checkpoints on every append, so
// that a checkpoint is running when the drivers return: the crash image
// must wait for it, or it copies a catalog and a WAL that do not belong
// together and acknowledged appends go missing.
func TestCrashImageWithCheckpointInFlight(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		e, err := setup("disk_mixed", seed, true, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		e.cp.every = 1
		r, err := e.runSocket(0.2, nil)
		if err != nil {
			t.Fatal(err)
		}
		post, err := e.verifyWrites(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.close(); err != nil {
			t.Fatal(err)
		}
		if post.checks == 0 || post.failed != 0 {
			t.Errorf("seed %d: %d of %d acknowledged appends missing from the crash image: %s", seed, post.failed, post.checks, post.firstFailure)
		}
		if len(e.cp.windows) == 0 {
			t.Errorf("seed %d: no checkpoint ran", seed)
		}
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              *float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatches holds BENCHMARK.json and the code to the same
// workloads and metrics, in both directions, and to the contract's
// limits on names, units and bounds.
func TestBenchmarkJSONMatches(t *testing.T) {
	b := readBenchmarkJSON(t)
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Errorf("BENCHMARK.json has %d workloads, the generator %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if i < len(workloadNames) && w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the generator", i, w.Name, workloadNames[i])
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name, or why not one line of 1-200 characters (%d)", w.Name, len(w.Why))
		}
		if !bytes.Contains(readme, []byte("`"+w.Name+"`")) {
			t.Errorf("README.md does not describe workload %s", w.Name)
		}
	}
	check := func(kind string, defs []metricDef, names, units, betters []string, bounds []*float64) {
		if len(defs) != len(names) {
			t.Errorf("%s: %d metrics in the code, %d in BENCHMARK.json", kind, len(defs), len(names))
			return
		}
		for i, d := range defs {
			if d.Name != names[i] || d.Unit != units[i] || d.Better != betters[i] {
				t.Errorf("%s metric %d: code has %s [%s, %s], BENCHMARK.json has %s [%s, %s]",
					kind, i, d.Name, d.Unit, d.Better, names[i], units[i], betters[i])
			}
			if !nameRE.MatchString(d.Name) || len(d.Name) > 64 || len(d.Unit) == 0 || len(d.Unit) > 16 ||
				!regexp.MustCompile(`^[A-Za-z0-9_/%.-]+$`).MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
				t.Errorf("%s metric %s: name, unit %q or direction %q outside the contract", kind, d.Name, d.Unit, d.Better)
			}
			if bounds != nil && (bounds[i] == nil || *bounds[i] != d.Bound || d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s metric %s: bound %v in the code does not match BENCHMARK.json or is outside (0, 0.25]", kind, d.Name, d.Bound)
			}
			if !bytes.Contains(readme, []byte("`"+d.Name+"`")) {
				t.Errorf("README.md does not define metric %s", d.Name)
			}
		}
	}
	var names, units, betters []string
	var bounds []*float64
	for _, m := range b.EndToEnd {
		names, units, betters, bounds = append(names, m.Name), append(units, m.Unit), append(betters, m.Better), append(bounds, m.Bound)
	}
	check("end-to-end", endToEnd, names, units, betters, bounds)
	names, units, betters = nil, nil, nil
	for _, m := range b.PerLayer {
		names, units, betters = append(names, m.Name), append(units, m.Unit), append(betters, m.Better)
	}
	check("per-layer", perLayer, names, units, betters, nil)
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric name %s is used twice", d.Name)
		}
		seen[d.Name] = true
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Error("setup_s [s, lower] must be an end-to-end metric")
	}
}

// lastLine parses the result object a run prints last.
func lastLine(t *testing.T, out []byte) map[string]json.RawMessage {
	t.Helper()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(lines[len(lines)-1], &obj); err != nil {
		t.Fatalf("last line is not a JSON object: %v\n%s", err, lines[len(lines)-1])
	}
	return obj
}

// TestQuickSmoke runs all four workloads end to end at test size, both
// untraced and traced, and checks that every answer was right and that
// exactly the declared metrics are printed under contract-valid names.
func TestQuickSmoke(t *testing.T) {
	start := time.Now()
	for _, name := range workloadNames {
		for _, mode := range []struct {
			run  func(string, int64, float64, bool, string) (*result, error)
			defs []metricDef
		}{{runEndToEnd, endToEnd}, {runTraced, perLayer}} {
			res, err := mode.run(name, 1, 0.3, true, t.TempDir())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d notes=%v", name, res.Correct, res.Attempted, res.Failed, res.Notes)
			}
			var out bytes.Buffer
			if err := res.print(&out, mode.defs); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			obj := lastLine(t, out.Bytes())
			if len(obj) != 4 || obj["correct"] == nil || obj["attempted"] == nil || obj["failed"] == nil || obj["metrics"] == nil {
				t.Fatalf("%s: result object must have exactly correct, attempted, failed, metrics: %s", name, out.Bytes())
			}
			var metrics map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			}
			if err := json.Unmarshal(obj["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			if len(metrics) != len(mode.defs) {
				t.Errorf("%s: %d metrics printed, %d declared", name, len(metrics), len(mode.defs))
			}
			for _, d := range mode.defs {
				m, ok := metrics[d.Name]
				if !ok || m.Value == nil || m.Unit != d.Unit {
					t.Errorf("%s: metric %s missing or without its unit %s", name, d.Name, d.Unit)
				}
			}
			if mode.defs[0].Name == "setup_s" {
				for _, d := range mode.defs {
					if m := metrics[d.Name]; m.Value != nil && *m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, d.Name, *m.Value)
					}
				}
			}
		}
	}
	// Under 10 s on the reference box, so tier-1 stays fast; logged, not
	// asserted, because the race detector and a loaded box stretch it.
	t.Logf("smoke took %v", time.Since(start))
}
