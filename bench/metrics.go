package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricDef names one metric the benchmark prints. BENCHMARK.json lists
// exactly these (a test compares the two in both directions); the
// definitions live in README.md.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change is a regression (0 for per-layer
	// metrics, which carry none).
	Bound float64
	// Exact marks a count that must repeat bit for bit at the same seed
	// in the single-threaded traced pass.
	Exact bool
}

// endToEnd are the client-observed metrics, measured with tracing off
// and reported by every workload. Metrics a user sees on only some
// workloads (append latency, delta lag, recovery, space) cannot carry a
// bound on the others, so they are reported by the traced run, from its
// untraced operations, under client.* and disk.*. One bound serves all
// four workloads; README.md, "Environment and measured spread", has the
// spreads the bounds rest on.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "query_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "positions_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
}

// opKinds are the plan-node kinds exec.op_self_ms is broken down by.
var opKinds = []string{"leaf", "select", "project", "posoffset", "voffset", "aggwindow", "compose"}

// perLayer are the metrics of the traced pass.
var perLayer = func() []metricDef {
	lo := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	hi := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	exact := func(m metricDef) metricDef { m.Exact = true; return m }
	defs := []metricDef{
		// Client-observed, over the socket, from the traced run's
		// untraced operations.
		lo("client.append_p50_us", "us"),
		lo("client.append_tail_us", "us"),
		hi("client.append_per_s", "1/s"),
		lo("client.delta_lag_p50_ms", "ms"),
		lo("client.delta_lag_tail_ms", "ms"),
		lo("client.failed_share", "share"),
		lo("client.trace_overhead_us", "us"),
		lo("process.peak_rss_mb", "MB"),

		lo("wire.decode_req_us", "us"),
		lo("wire.encode_rows_ns_per_row", "ns/row"),
		lo("wire.decode_rows_ns_per_row", "ns/row"),
		exact(lo("wire.bytes_per_row", "B/row")),
		lo("wire.delta_encode_us", "us"),
		exact(lo("wire.delta_bytes_per_append", "B")),

		lo("server.exec_ms_p50", "ms"),
		lo("server.queue_tail_ms", "ms"),
		lo("server.unaccounted_ms_p50", "ms"),
		lo("server.unaccounted_share", "share"),
		lo("server.session_query_us_p50", "us"),
		lo("server.session_residual_us_p50", "us"),
		lo("server.append_us_p50", "us"),
		lo("server.append_residual_us_p50", "us"),
		lo("server.publish_deltas_us_per_append", "us"),
		exact(lo("server.epochs_advanced", "count")),

		lo("parser.parse_us_p50", "us"),
		lo("parser.bind_us_p50", "us"),
		lo("rewrite.rewrite_us_p50", "us"),
		exact(lo("rewrite.rules_fired_per_query", "count")),
		lo("meta.annotate_us_p50", "us"),
		lo("core.optimize_us_p50", "us"),
		lo("core.plangen_self_us_p50", "us"),
		exact(lo("core.join_plans_evaluated_per_query", "count")),
		exact(lo("core.candidates_costed_per_query", "count")),
		lo("core.planning_share", "share"),
		lo("core.cost_qerror_p50", "ratio"),
		lo("core.cost_qerror_p90", "ratio"),
		lo("core.maintain_views_us_per_append", "us"),
		lo("canon.canonicalize_us_p50", "us"),
		lo("planlint.verify_snapshot_us_p50", "us"),

		lo("exec.run_ms_p50", "ms"),
		lo("exec.ns_per_position", "ns"),
		lo("exec.allocs_per_query", "count"),
		lo("exec.bytes_alloc_per_query", "B"),
		exact(lo("exec.batches_per_query", "count")),
		exact(hi("exec.rows_per_batch", "count")),
		exact(hi("exec.cache_hit_share", "share")),
		exact(lo("exec.cache_peak_records", "count")),
	}
	for _, k := range opKinds {
		defs = append(defs, lo("exec.op_self_ms."+k, "ms"))
	}
	return append(defs,
		lo("expr.vecpred_ns_per_row", "ns/row"),
		exact(hi("expr.vecpred_compiled_share", "share")),
		lo("seq.entry_rows_ns_per_row", "ns/row"),
		exact(hi("seq.intern_hit_share", "share")),

		lo("storage.scan_ns_per_record", "ns"),
		lo("storage.probe_ns_p50", "ns"),
		exact(lo("storage.pages_per_query", "count")),
		lo("storage.append_us_p50", "us"),
		lo("storage.replace_us_p50", "us"),
		lo("storage.page_versions_end", "count"),

		hi("disk.pool_hit_share", "share"),
		lo("disk.pool_evictions", "count"),
		lo("disk.pages_read_per_query", "count"),
		lo("disk.cold_scan_ms", "ms"),
		lo("disk.append_us_p50", "us"),
		exact(lo("disk.wal_bytes_per_user_byte", "ratio")),
		exact(lo("disk.fsyncs_per_append", "count")),
		lo("disk.checkpoints", "count"),
		lo("disk.checkpoint_ms_total", "ms"),
		lo("disk.max_append_during_checkpoint_us", "us"),
		lo("disk.bytes_per_user_byte", "ratio"),
		lo("disk.recovery_s", "s"),

		lo("matview.match_us_p50", "us"),
		exact(hi("matview.hit_share", "share")),
		lo("matview.affected_span_us_p50", "us"),
		exact(lo("matview.views_maintained_per_append", "count")),
		exact(hi("matview.stitch_share", "share")),
		exact(lo("matview.halo_positions_per_append", "count")),

		lo("parallel.k_chosen_p50", "count"),
	)
}()

// measured is one reported value with the number of samples behind it
// and, for a tail latency, the percentile the rule chose.
type measured struct {
	Value   float64
	Samples int
	Pct     int
}

// result is what one run of one workload reports.
type result struct {
	Workload  string
	Attempted int
	Failed    int
	Correct   bool
	Metrics   map[string]measured
	Notes     []string
}

func (r *result) set(name string, value float64, samples int) {
	r.Metrics[name] = measured{Value: value, Samples: samples}
}

// setTail reports the tail latency of a sorted sample (stats.go, tail).
func (r *result) setTail(name string, sorted []float64) {
	p, v := tail(sorted)
	r.Metrics[name] = measured{Value: v, Samples: len(sorted), Pct: p}
}

// print writes every metric by name with unit and sample count, any
// notes, and — as the last line — the JSON object the driver reads.
func (r *result) print(w io.Writer, defs []metricDef) error {
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured on %s", d.Name, r.Workload)
		}
		fmt.Fprintf(w, "metric %-14s %-40s %16.6g %-8s n=%d", r.Workload, d.Name, m.Value, d.Unit, m.Samples)
		if m.Pct > 0 {
			fmt.Fprintf(w, " p%d", m.Pct)
		}
		fmt.Fprintln(w)
	}
	sort.Strings(r.Notes)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note   %-14s %s\n", r.Workload, n)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]jsonMetric, len(defs))}
	for _, d := range defs {
		out.Metrics[d.Name] = jsonMetric{Value: r.Metrics[d.Name].Value, Unit: d.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
