package main

import (
	"fmt"
	"time"
)

// runTraced is the traced run. First the socket path, in rounds as the
// untraced run drives it, except that half the operations go over a
// client that stamps send, first byte and last byte: the client-observed
// numbers come from the untraced half, the tracing overhead is the
// difference between the halves. Then, on one more fresh
// environment, the in-process replay. It reports every per-layer metric;
// a metric with nothing to measure on this workload is 0 with n=0.
func runTraced(name string, seed int64, seconds float64, quick bool, outDir string) (*result, error) {
	var tracers []*tracer
	for i := 0; i < connections; i++ {
		tracers = append(tracers, newTracer(i))
	}
	m, err := measure(name, seed, seconds, quick, outDir, tracers)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB() // of the socket rounds: before the replay's server adds to it
	if err != nil {
		return nil, err
	}

	e, err := setup(name, seed, quick, outDir)
	if err != nil {
		return nil, err
	}
	// The replay runs with the workload's subscriber connected, so the
	// server's own Append frames and pushes deltas as it does under load.
	var sub *subscriber
	if len(e.w.Subs) > 0 {
		if sub, err = subscribe(e.addr, e.w.Subs); err != nil {
			e.close()
			return nil, err
		}
	}
	rp, err := runReplay(e, outDir)
	if sub != nil {
		sub.stop()
	}
	if cerr := e.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	path, err := writeTrace(outDir, name, rp.tr, tracers)
	if err != nil {
		return nil, err
	}

	res := newResult(name, m)
	for _, d := range perLayer {
		res.set(d.Name, 0, 0)
	}
	res.Attempted += int(rp.count["ops"])
	res.Failed += rp.failed
	res.Correct = res.Failed == 0
	res.addFailures(rp.failure)
	res.Notes = append(res.Notes, "trace written to "+path)
	res.set("process.peak_rss_mb", rss, 1)
	reportSocket(res, m)
	rp.report(res)
	return res, nil
}

// report turns the replay's spans, samples and counters into the
// per-layer metrics.
func (r *replay) report(res *result) {
	us := byName(r.tr.spans)
	p50 := func(metric, spanName string, scale float64) float64 {
		v := percentile(sorted(us[spanName]), 50) * scale
		res.set(metric, v, len(us[spanName]))
		return v
	}
	per := func(metric, num, den string, scale float64) {
		res.set(metric, ratio(r.count[num], r.count[den])*scale, int(r.count[den]))
	}
	queries, appends := int(r.count["queries"]), int(r.count["appends"])

	p50("wire.decode_req_us", "wire.decode_req", 1)
	per("wire.encode_rows_ns_per_row", "encode_us", "rows", 1e3)
	per("wire.decode_rows_ns_per_row", "decode_us", "rows", 1e3)
	per("wire.bytes_per_row", "row_bytes", "rows", 1)
	res.set("wire.delta_encode_us", percentile(sorted(r.samples["delta_encode_us"]), 50), len(r.samples["delta_encode_us"]))
	per("wire.delta_bytes_per_append", "delta_bytes", "appends", 1)

	sample := func(metric, key string) {
		res.set(metric, percentile(sorted(r.samples[key]), 50), len(r.samples[key]))
	}
	p50("parser.parse_us_p50", "parser.parse", 1)
	sample("parser.bind_us_p50", "bind_self_us") // derived: Bind - Parse
	p50("rewrite.rewrite_us_p50", "rewrite.rewrite", 1)
	per("rewrite.rules_fired_per_query", "rules_fired", "queries", 1)
	p50("meta.annotate_us_p50", "meta.annotate", 1)
	p50("core.optimize_us_p50", "core.optimize", 1)
	sample("core.plangen_self_us_p50", "plangen_self_us") // derived: Optimize - Rewrite - Annotate
	per("core.join_plans_evaluated_per_query", "join_plans", "queries", 1)
	per("core.candidates_costed_per_query", "candidates", "queries", 1)
	p50("canon.canonicalize_us_p50", "canon.canonicalize", 1)
	p50("planlint.verify_snapshot_us_p50", "planlint.verify_snapshot", 1)
	p50("server.session_query_us_p50", "server.session_query", 1)
	sample("core.planning_share", "planning_share")
	r.residual(res, "server.session_residual_us_p50", "session_residual_us", "Session.Query")
	qe := sorted(r.samples["qerror"])
	res.set("core.cost_qerror_p50", percentile(qe, 50), len(qe))
	res.set("core.cost_qerror_p90", percentile(qe, 90), len(qe))

	p50("exec.run_ms_p50", "exec.run", 1e-3)
	per("exec.ns_per_position", "run_us", "positions", 1e3)
	per("exec.allocs_per_query", "allocs", "queries", 1)
	per("exec.bytes_alloc_per_query", "alloc_bytes", "queries", 1)
	per("exec.batches_per_query", "batches", "queries", 1)
	per("exec.rows_per_batch", "batch_rows", "batches", 1)
	per("exec.cache_hit_share", "cache_hits", "cache_lookups", 1)
	res.set("exec.cache_peak_records", r.count["cache_peak"], queries)
	for _, k := range opKinds {
		per("exec.op_self_ms."+k, "self_ms."+k, "queries", 1)
	}
	per("expr.vecpred_ns_per_row", "vecpred_ns", "vecpred_rows", 1)
	per("expr.vecpred_compiled_share", "preds_compiled", "preds", 1)
	per("seq.entry_rows_ns_per_row", "entry_rows_us", "entry_rows", 1e3)
	per("seq.intern_hit_share", "intern_hits", "intern_lookups", 1)
	per("storage.scan_ns_per_record", "scan_us", "scan_records", 1e3)
	probes := sorted(r.samples["probe_ns"])
	res.set("storage.probe_ns_p50", percentile(probes, 50), len(probes))
	per("storage.pages_per_query", "pages", "queries", 1)
	k := sorted(r.samples["k_chosen"])
	res.set("parallel.k_chosen_p50", percentile(k, 50), len(k))
	per("matview.hit_share", "view_hits", "queries", 1)
	p50("matview.match_us_p50", "matview.match", 1)

	p50("server.append_us_p50", "server.append", 1)
	p50("storage.append_us_p50", "storage.append", 1)
	p50("storage.replace_us_p50", "storage.replace", 1)
	p50("disk.append_us_p50", "disk.append", 1)
	p50("matview.affected_span_us_p50", "matview.affected_span", 1)
	maintain := ratio(sum(us["core.maintain_views"]), r.count["appends"])
	publish := ratio(sum(us["server.publish_deltas"]), r.count["appends"])
	if len(us["core.maintain_views"]) > 0 {
		res.set("core.maintain_views_us_per_append", maintain, appends)
		res.set("server.publish_deltas_us_per_append", publish, appends)
		r.residual(res, "server.append_residual_us_p50", "append_residual_us", "Server.Append")
	}
	per("matview.views_maintained_per_append", "maintained", "appends", 1)
	per("matview.stitch_share", "stitches", "maint_actions", 1)
	per("matview.halo_positions_per_append", "halo_positions", "appends", 1)
	res.set("server.epochs_advanced", r.count["epochs"], appends)
	res.set("storage.page_versions_end", r.count["page_versions"], 1)

	if r.m.db != nil {
		lookups := r.count["pool_hits"] + r.count["pool_misses"]
		res.set("disk.pool_hit_share", ratio(r.count["pool_hits"], lookups), int(lookups))
		res.set("disk.pool_evictions", r.count["pool_evictions"], int(lookups))
		per("disk.pages_read_per_query", "pool_misses", "queries", 1)
		res.set("disk.cold_scan_ms", percentile(r.samples["cold_scan_ms"], 50), len(r.samples["cold_scan_ms"]))
		per("disk.wal_bytes_per_user_byte", "wal_bytes", "user_bytes", 1)
		res.set("disk.fsyncs_per_append", ratio(float64(r.sync), r.count["appends"]), appends)
	}

	// Self time by layer, for the reader of the run.
	self := selfTimes(r.tr.spans)
	byLayer := make(map[string]float64)
	for i, s := range r.tr.spans {
		if !s.Shadow {
			byLayer[s.Layer] += float64(self[i]) / 1e6
		}
	}
	for layer, ms := range byLayer {
		res.Notes = append(res.Notes, fmt.Sprintf("replay self time %-10s %10.3f ms over %d operations", layer, ms, int(r.count["ops"])))
	}
}

// residual reports the median, over operations, of what the server's own
// call took beyond the staged steps replayed on the mirror. Where the
// mirror's steps are the slower ones it is negative, and a note says so:
// the decomposition then overstates those layers.
func (r *replay) residual(res *result, metric, key, whole string) {
	v := percentile(sorted(r.samples[key]), 50)
	res.set(metric, v, len(r.samples[key]))
	if v < 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("%s is negative: on this workload the staged steps on the mirror take longer than the server's own %s", metric, whole))
	}
}

// reportSocket fills the client-observed per-layer metrics from the
// traced run's socket rounds: latencies, delta lag and the
// server-reported split from their untraced operations, rates and
// failures from all of them, the tracing overhead as the difference
// between the median latencies of traced and untraced operations, and the
// durable tier's checkpoints, recovery and space.
func reportSocket(res *result, m *measurement) {
	queries, exec, unacc := sorted(m.queryMs), sorted(m.execMs), sorted(m.unaccountedMs)
	res.set("server.exec_ms_p50", percentile(exec, 50), len(exec))
	res.setTail("server.queue_tail_ms", sorted(m.queueMs))
	res.set("server.unaccounted_ms_p50", percentile(unacc, 50), len(unacc))
	res.set("server.unaccounted_share", ratio(percentile(unacc, 50), percentile(queries, 50)), len(unacc))

	appendUs, lag := sorted(m.appendUs), sorted(m.lagMs)
	res.set("client.append_p50_us", percentile(appendUs, 50), len(appendUs))
	res.setTail("client.append_tail_us", appendUs)
	res.set("client.append_per_s", ratio(float64(m.appends), m.wall.Seconds()), m.appends)
	res.set("client.delta_lag_p50_ms", percentile(lag, 50), len(lag))
	res.setTail("client.delta_lag_tail_ms", lag)
	checked := m.attempted + m.post.checks
	res.set("client.failed_share", ratio(float64(m.failed+m.post.failed), float64(checked)), checked)
	res.set("client.trace_overhead_us", median(m.tracedUs)-median(m.plainUs), len(m.tracedUs))

	if m.post.userBytes == 0 {
		return
	}
	res.set("disk.bytes_per_user_byte", ratio(float64(m.post.diskBytes), float64(m.post.userBytes)), len(m.post.recoveryS))
	res.set("disk.recovery_s", median(m.post.recoveryS), len(m.post.recoveryS))
	// The slowest untraced append that overlapped a checkpoint.
	var total time.Duration
	var worst float64
	overlapped := 0
	for _, w := range m.checkpoints {
		total += w[1].Sub(w[0])
		for k, t0 := range m.appendAt {
			us := m.appendUs[k]
			if end := t0.Add(time.Duration(us * 1e3)); t0.Before(w[1]) && end.After(w[0]) {
				overlapped++
				worst = max(worst, us)
			}
		}
	}
	res.set("disk.checkpoints", float64(len(m.checkpoints)), len(m.checkpoints))
	res.set("disk.checkpoint_ms_total", float64(total.Nanoseconds())/1e6, len(m.checkpoints))
	res.set("disk.max_append_during_checkpoint_us", worst, overlapped)
}
