package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/algebra"
	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/matview"
	"repro/internal/meta"
	"repro/internal/parser"
	"repro/internal/planlint"
	"repro/internal/rewrite"
	"repro/internal/seq"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/storage/disk"
	"repro/internal/wire"
)

// The traced pass replays the first operations of stream 0,
// single-threaded and in-process, through each layer's public
// functions, one span per call. The server keeps its catalog, registry
// and subscriptions private, so the staged calls run against a mirror
// the benchmark builds from the same data with the same public
// constructors: versioned stores (or the attached database's own
// snapshots), a view registry holding the same views, and the standing
// queries bound once. Every write goes to the server first and to the
// mirror at the epoch the server returned, so both stay at one epoch.

type mirror struct {
	mem   map[string]*storage.Versioned // memory tier
	db    *disk.DB                      // durable tier: the server's database
	stats map[string]map[int]expr.ColStats
	views *matview.Registry
	subs  []*algebra.Node // standing queries, bound at the start
}

func newMirror(e *env) (*mirror, error) {
	m := &mirror{mem: make(map[string]*storage.Versioned), db: e.db,
		stats: make(map[string]map[int]expr.ColStats), views: matview.New()}
	epoch := e.srv.Epoch()
	for _, b := range e.w.Bases {
		m.stats[b.Name] = meta.StatsFromMaterialized(b.Data)
		if m.db == nil {
			v, err := storage.NewVersioned(b.Data, b.Kind, 0, epoch)
			if err != nil {
				return nil, err
			}
			m.mem[b.Name] = v
		}
	}
	for _, v := range e.w.Views {
		root, err := parser.Bind(v.SEQL, m.catalogAt(epoch))
		if err != nil {
			return nil, err
		}
		res, err := core.Optimize(root, v.Span, core.Options{})
		if err != nil {
			return nil, err
		}
		out, err := res.Run()
		if err != nil {
			return nil, err
		}
		if _, err := m.views.RegisterAt(v.Name, res.Rewritten, out, res.RunSpan, epoch); err != nil {
			return nil, err
		}
	}
	for _, s := range e.w.Subs {
		root, err := parser.Bind(s.SEQL, m.catalogAt(epoch))
		if err != nil {
			return nil, err
		}
		m.subs = append(m.subs, root)
	}
	return m, nil
}

func (m *mirror) snapshot(name string, epoch int64) storage.SeqSnapshot {
	if m.db != nil {
		if s, ok := m.db.Seq(name); ok {
			if snap := s.SnapshotAt(epoch); snap != nil {
				return snap
			}
		}
		return nil
	}
	if v, ok := m.mem[name]; ok {
		if snap := v.SnapshotAt(epoch); snap != nil {
			return snap
		}
	}
	return nil
}

func (m *mirror) catalogAt(epoch int64) parser.Catalog {
	return parser.CatalogFunc(func(name string) (*algebra.Node, bool) {
		snap := m.snapshot(name, epoch)
		if snap == nil {
			return nil, false
		}
		return algebra.BaseWithStats(name, snap, m.stats[name]), true
	})
}

func (m *mirror) sequenceAt(epoch int64) func(string) (seq.Sequence, bool) {
	return func(name string) (seq.Sequence, bool) {
		snap := m.snapshot(name, epoch)
		return snap, snap != nil
	}
}

// replay carries the traced pass's state: spans, per-metric samples and
// counters.
type replay struct {
	e       *env
	m       *mirror
	tr      *tracer
	sess    *server.Session
	scratch *disk.DB // a second database, for timing the disk layer alone
	sync    int      // fsyncs the scratch database issued
	samples map[string][]float64
	count   map[string]float64
	acked   []op // appends the server acknowledged during the replay
	failed  int
	failure string
}

func (r *replay) add(key string, v float64) { r.samples[key] = append(r.samples[key], v) }

func (r *replay) fail(format string, args ...any) {
	r.failed++
	if r.failure == "" {
		r.failure = fmt.Sprintf(format, args...)
	}
}

// call times f as a span under parent and returns its duration in µs.
func (r *replay) call(parent, op int, name string, shadow bool, f func() error) float64 {
	id := r.tr.begin(parent, op, name, shadow)
	err := f()
	ns := r.tr.end(id)
	if err != nil {
		r.fail("%s: %v", name, err)
	}
	return float64(ns) / 1e3
}

// labelKinds maps the prefix of a physical operator's label to the kind
// its self time is reported under (opKinds).
var labelKinds = [][2]string{
	{"scan(", "leaf"}, {"select(", "select"}, {"project(", "project"}, {"offset(", "posoffset"},
	{"voffset-", "voffset"}, {"agg-", "aggwindow"}, {"compose-", "compose"},
}

func nodeKind(label string) string {
	for _, lk := range labelKinds {
		if strings.HasPrefix(label, lk[0]) {
			return lk[1]
		}
	}
	return ""
}

// query replays one read. First the steps Session.Query performs, in
// its order, one span each; then, as shadow spans, the calls that time a
// layer in isolation (the same work already ran inside one of the
// steps); then — or, on every other query, before all of that, so
// neither side always finds the caches the other warmed — the same query
// through the server's own session, no socket.
func (r *replay) query(i int, o op) {
	span := seq.NewSpan(o.Start, o.End)
	session := func() float64 {
		return r.call(-1, i, "server.session_query", false, func() error {
			got, err := r.sess.Query(o.SEQL, span)
			if err == nil {
				err = r.e.check(o, got.Entries)
			}
			return err
		})
	}
	var sessionUs, planUs, runUs float64
	if int(r.count["queries"])%2 == 0 {
		sessionUs = session()
		planUs, runUs = r.staged(i, o, span)
	} else {
		planUs, runUs = r.staged(i, o, span)
		sessionUs = session()
	}
	r.count["queries"]++
	if runUs > 0 {
		// Per operation, because the templates differ by an order of
		// magnitude: medians of parts do not add up to the median of the
		// whole.
		r.add("planning_share", planUs/(planUs+runUs))
		r.add("session_residual_us", sessionUs-planUs-runUs)
	}
}

// staged returns the time spent planning (bind, optimize, verify) and
// executing; both 0 if a step failed.
func (r *replay) staged(i int, o op, span seq.Span) (planUs, runUs float64) {
	epoch := r.e.srv.Epoch()
	root := r.tr.begin(-1, i, "op.query", false)
	defer r.tr.end(root)

	frame := wire.Encode(&wire.Query{SEQL: o.SEQL, Start: o.Start, End: o.End})
	r.call(root, i, "wire.decode_req", false, func() error { _, err := wire.Decode(frame); return err })
	var node *algebra.Node
	bindUs := r.call(root, i, "parser.bind", false, func() (err error) {
		node, err = parser.Bind(o.SEQL, r.m.catalogAt(epoch))
		return err
	})
	if node == nil {
		return 0, 0
	}
	var res *core.Result
	optimizeUs := r.call(root, i, "core.optimize", false, func() (err error) {
		res, err = core.Optimize(node, span, core.Options{Views: r.m.views.At(epoch)})
		return err
	})
	if res == nil {
		return 0, 0
	}
	r.count["join_plans"] += float64(res.Stats.JoinPlansEvaluated)
	r.count["candidates"] += float64(res.Stats.CandidatesCosted)
	if len(res.Substitutions) > 0 {
		r.count["view_hits"]++
	}
	verifyUs := r.call(root, i, "planlint.verify_snapshot", false, func() error {
		if issues := planlint.VerifySnapshot(res.Rewritten, res.Substitutions, epoch); len(issues) > 0 {
			return fmt.Errorf("%s", issues[0])
		}
		return nil
	})
	var out *seq.Materialized
	runUs = r.call(root, i, "exec.run", false, func() (err error) { out, err = res.Run(); return err })
	if out == nil {
		return 0, 0
	}
	r.count["run_us"] += runUs
	r.count["positions"] += float64(span.Len())
	entries := out.Entries()
	if err := r.e.check(o, entries); err != nil {
		r.fail("%v", err)
	}
	var frames [][]byte
	r.count["encode_us"] += r.call(root, i, "wire.encode_rows", false, func() error {
		frames = append(frames, wire.Encode(&wire.ResultHeader{Fields: out.Info().Schema.Fields(), Epoch: epoch}))
		for _, batch := range wire.SplitRows(entries) {
			frames = append(frames, wire.Encode(&wire.ResultRows{Entries: batch}))
		}
		frames = append(frames, wire.Encode(&wire.ResultDone{Rows: uint64(len(entries)), Epoch: epoch}),
			wire.Encode(&wire.Ready{Epoch: epoch}))
		return nil
	})
	r.count["rows"] += float64(len(entries))
	for _, f := range frames {
		r.count["row_bytes"] += float64(len(f) + 4) // plus the length prefix
	}

	// Shadows. Bind parses first and Optimize rewrites and annotates
	// first, so the binder's and the plan generator's own time are the
	// differences, per operation.
	parseUs := r.call(root, i, "parser.parse", true, func() error { _, err := parser.Parse(o.SEQL); return err })
	r.add("bind_self_us", bindUs-parseUs)
	var rewritten *algebra.Node
	rewriteUs := r.call(root, i, "rewrite.rewrite", true, func() (err error) {
		var fired int
		rewritten, fired, err = rewrite.Rewrite(node, rewrite.DefaultRules())
		r.count["rules_fired"] += float64(fired)
		return err
	})
	if rewritten != nil {
		annotateUs := r.call(root, i, "meta.annotate", true, func() error { _, err := meta.Annotate(rewritten, span); return err })
		r.add("plangen_self_us", optimizeUs-rewriteUs-annotateUs)
	}
	var c *canon.Canon
	r.call(root, i, "canon.canonicalize", true, func() (err error) { c, err = canon.Canonicalize(res.Rewritten); return err })
	if c != nil {
		r.call(root, i, "matview.match", true, func() error { r.m.views.At(epoch).Match(c, res.RunSpan); return nil })
	}
	r.count["decode_us"] += r.call(root, i, "wire.decode_rows", true, func() error {
		for _, f := range frames {
			if _, err := wire.Decode(f); err != nil {
				return err
			}
		}
		return nil
	})
	// Reading the allocator's counters stops the world, so the run whose
	// allocations are counted is a run of its own.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.call(root, i, "exec.run_counted", true, func() error { _, err := res.Run(); return err })
	runtime.ReadMemStats(&after)
	r.count["allocs"] += float64(after.Mallocs - before.Mallocs)
	r.count["alloc_bytes"] += float64(after.TotalAlloc - before.TotalAlloc)
	r.analyze(root, i, res)
	r.layers(root, i, res, span)
	return bindUs + optimizeUs + verifyUs, runUs
}

// analyze reruns the plan instrumented and folds the per-node metrics
// into per-kind self times, cache, page, batch and intern counters, the
// partition count chosen, and the cost model's q-error.
func (r *replay) analyze(parent, i int, res *core.Result) {
	var a *core.Analysis
	r.call(parent, i, "exec.run_analyze", true, func() (err error) { a, err = res.RunAnalyze(); return err })
	if a == nil {
		return
	}
	a.Root.Walk(func(n *exec.NodeMetrics, _ int) {
		if kind := nodeKind(n.Label); kind != "" {
			r.count["self_ms."+kind] += float64(n.ExclusiveTime().Nanoseconds()) / 1e6
		}
		r.count["cache_hits"] += float64(n.CacheHits)
		r.count["cache_lookups"] += float64(n.CacheHits + n.CacheMisses)
		r.count["cache_peak"] = max(r.count["cache_peak"], float64(n.CachePeak))
	})
	r.count["pages"] += float64(a.GlobalPages.Pages())
	r.count["batches"] += float64(a.Batches)
	r.count["batch_rows"] += float64(a.BatchRows)
	r.count["intern_hits"] += float64(a.Intern.StrHits + a.Intern.RecHits)
	r.count["intern_lookups"] += float64(a.Intern.StrHits + a.Intern.RecHits + a.Intern.StrMisses + a.Intern.RecMisses)
	k := 1.0
	if a.Decision.Parallel() {
		k = float64(a.Decision.K)
	}
	r.add("k_chosen", k)
	actual := a.Root.ActualCost(exec.CostWeights{SeqPage: a.Params.SeqPage, RandPage: a.Params.RandPage,
		CacheAccess: a.Params.CacheAccess, PerRecord: a.Params.PerRecord})
	if pred := a.Predicted.Stream; pred > 0 && actual > 0 {
		r.add("qerror", max(pred/actual, actual/pred))
	}
}

// leafBatches opens the batch scan exec.Leaf opens on a base: native
// when the sequence scans in batches, else its record cursor behind the
// row-to-batch adapter (which is what an MVCC snapshot gets).
func leafBatches(s seq.Sequence, span seq.Span, ctx *seq.BatchCtx) seq.BatchCursor {
	if bs, ok := s.(seq.BatchScanner); ok {
		return bs.ScanBatches(span, ctx)
	}
	return seq.BatchCursorFrom(s.Scan(span), span, s.Info().Schema, ctx)
}

// layers times, in isolation, the calls the execution plane makes into
// storage, expr and seq for this query: the leaf batch scan and a probe
// of every base store, the compiled predicates over a leaf's batches,
// and the row-to-column transpose.
func (r *replay) layers(parent, i int, res *core.Result, span seq.Span) {
	for _, st := range exec.PlanStores(res.Plan) {
		hit := res.RunSpan.Intersect(st.Info().Span)
		if hit.IsEmpty() {
			continue
		}
		var records int
		us := r.call(parent, i, "storage.scan", true, func() error {
			cur := leafBatches(st, hit, seq.NewBatchCtx())
			defer cur.Close()
			for b, ok := cur.NextBatch(); ok; b, ok = cur.NextBatch() {
				records += b.Rows()
			}
			return cur.Err()
		})
		r.count["scan_us"] += us
		r.count["scan_records"] += float64(records)
		t0 := time.Now()
		_, err := st.Probe(seq.ClampPos(hit.Start + seq.Pos(hit.Len()/2)))
		r.add("probe_ns", float64(time.Since(t0).Nanoseconds()))
		if err != nil {
			r.fail("storage.probe: %v", err)
		}
	}
	var walk func(n *algebra.Node)
	walk = func(n *algebra.Node) {
		for _, in := range n.Inputs {
			walk(in)
		}
		if n.Kind != algebra.KindSelect {
			return
		}
		r.count["preds"]++
		vp, ok := expr.CompilePred(n.Pred)
		if !ok {
			return
		}
		r.count["preds_compiled"]++
		if n.Inputs[0].Kind != algebra.KindBase {
			return
		}
		ctx := seq.NewBatchCtx()
		in := n.Inputs[0].Seq
		cur := leafBatches(in, res.RunSpan.Intersect(in.Info().Span), ctx)
		defer cur.Close()
		for b, ok := cur.NextBatch(); ok; b, ok = cur.NextBatch() {
			t0 := time.Now()
			vp.Eval(b, ctx.Intern)
			r.count["vecpred_ns"] += float64(time.Since(t0).Nanoseconds())
			r.count["vecpred_rows"] += float64(b.Rows())
		}
	}
	walk(res.Rewritten)

	// The transpose, over the first base's entries inside the span.
	all := r.e.w.Bases[0].Data.Entries()
	lo := sort.Search(len(all), func(k int) bool { return all[k].Pos >= span.Start })
	hi := sort.Search(len(all), func(k int) bool { return all[k].Pos > span.End })
	if win := all[lo:hi]; len(win) > 0 {
		b := seq.NewBatchFor(stockSchema, len(win))
		us := r.call(parent, i, "seq.entry_rows", true, func() error { return b.AppendEntryRows(win, seq.NewIntern()) })
		r.count["entry_rows_us"] += us
		r.count["entry_rows"] += float64(len(win))
	}
}

// write replays one append: the server's own Append first, whole, then
// the steps it performs under its write lock, one by one on the mirror.
func (r *replay) write(i int, o op) {
	entry := seq.Entry{Pos: o.Pos, Rec: o.Rec}
	delta := seq.NewSpan(o.Pos, o.Pos)
	var epoch int64
	serverUs := r.call(-1, i, "server.append", false, func() (err error) { epoch, err = r.e.srv.Append(o.Base, o.Pos, o.Rec); return err })
	if epoch == 0 {
		return
	}
	r.count["appends"]++
	r.acked = append(r.acked, o)
	root := r.tr.begin(-1, i, "op.append", false)
	frame := wire.Encode(&wire.Append{Seq: o.Base, Pos: o.Pos, Rec: o.Rec})
	r.call(root, i, "wire.decode_req", false, func() error { _, err := wire.Decode(frame); return err })

	if r.m.db != nil {
		// The durable tier alone, on a database of its own.
		before := r.scratch.WALBytes()
		r.call(root, i, "disk.append", false, func() error { _, err := r.scratch.Append(o.Base, entry); return err })
		r.count["wal_bytes"] += float64(r.scratch.WALBytes() - before)
		r.count["user_bytes"] += float64(len(appendEntry(nil, entry)))
		r.tr.end(root)
		return
	}

	storageUs := r.call(root, i, "storage.append", false, func() error { return r.m.mem[o.Base].Append(entry, epoch) })
	lookup := r.m.sequenceAt(epoch)

	// Each view's halo analysis alone, before maintenance moves them.
	old := make(map[string]storage.Store)
	for _, v := range r.m.views.Views() {
		if v.InvalidFrom() != 0 || !matview.ReadsBase(v.Node, o.Base) {
			continue
		}
		old[v.Name] = v.Store
		if node, err := matview.Rebind(v.Node, lookup); err == nil {
			r.call(root, i, "matview.affected_span", true, func() error { matview.AffectedSpan(node, o.Base, delta); return nil })
		}
	}
	var reports []matview.MaintenanceReport
	maintainUs := r.call(root, i, "core.maintain_views", false, func() (err error) {
		reports, err = core.MaintainViews(r.m.views, o.Base, delta, epoch, lookup, core.Options{})
		return err
	})
	replaced := false
	for _, rep := range reports {
		r.count["maint_actions"]++
		if rep.Action == matview.MaintainNone {
			continue
		}
		r.count["maintained"]++
		if rep.Action != matview.MaintainStitch {
			continue
		}
		r.count["stitches"]++
		r.count["halo_positions"] += float64(rep.StitchSpan.Len())
		// One copy-on-write splice per append, repeated in isolation.
		if v, ok := r.m.views.Get(rep.ViewName); ok && !replaced {
			replaced = true
			fresh, err := seq.Collect(v.Store.Scan(rep.StitchSpan))
			if err == nil {
				r.call(root, i, "storage.replace", true, func() error {
					_, _, err := storage.Replace(old[rep.ViewName], rep.StitchSpan, fresh)
					return err
				})
			}
		}
	}

	// What publishDeltas does per subscription that reads the base.
	pub := r.tr.begin(root, i, "server.publish_deltas", false)
	for s, sub := range r.m.subs {
		if !matview.ReadsBase(sub, o.Base) {
			continue
		}
		span := r.e.w.Subs[s].Span
		var node *algebra.Node
		r.call(pub, i, "matview.rebind", false, func() (err error) { node, err = matview.Rebind(sub, lookup); return err })
		if node == nil {
			continue
		}
		hit := span
		r.call(pub, i, "matview.affected_span", false, func() error {
			if affected, known := matview.AffectedSpan(node, o.Base, delta); known {
				hit = affected.Intersect(span)
			}
			return nil
		})
		if hit.IsEmpty() {
			continue
		}
		var entries []seq.Entry
		r.call(pub, i, "algebra.eval_range", false, func() (err error) { entries, err = algebra.EvalRange(node, hit); return err })
		us := r.call(pub, i, "wire.delta_encode", false, func() error {
			for _, d := range wire.SplitDelta(uint64(s+1), epoch, hit.Start, hit.End, entries) {
				r.count["delta_bytes"] += float64(len(wire.Encode(d)) + 4)
			}
			return nil
		})
		r.add("delta_encode_us", us)
	}
	publishUs := float64(r.tr.end(pub)) / 1e3
	r.tr.end(root)
	// Per operation, like the read side's residual: what the server's
	// own Append took beyond the steps replayed on the mirror.
	r.add("append_residual_us", serverUs-storageUs-maintainUs-publishUs)
	// Old view generations are only kept for pinned readers; the mirror
	// has none.
	r.m.views.GC(epoch)
}

// openScratch creates the second database the disk layer is timed on:
// copies of the append bases and a hook that counts WAL fsyncs.
func (r *replay) openScratch(outDir string) error {
	dir := filepath.Join(outDir, r.e.w.Name+"-layer-db")
	cfg := diskConfig(r.e.w.PoolPages, func(op string) error {
		if op == "wal.sync" {
			r.sync++
		}
		return nil
	})
	db, err := openFresh(dir, cfg)
	if err != nil {
		return err
	}
	r.scratch = db
	for _, b := range r.e.w.Bases {
		if b.Kind == storage.KindSparse {
			if err := db.CreateSequence(b.Name, b.Data, b.Kind); err != nil {
				return err
			}
		}
	}
	r.sync = 0
	return nil
}

// runReplay replays the first n operations of stream 0.
func runReplay(e *env, outDir string) (*replay, error) {
	m, err := newMirror(e)
	if err != nil {
		return nil, fmt.Errorf("mirror: %w", err)
	}
	r := &replay{e: e, m: m, tr: newTracer(0), sess: e.srv.NewSession("bench-replay"),
		samples: make(map[string][]float64), count: make(map[string]float64)}
	if e.db != nil {
		if err := r.openScratch(outDir); err != nil {
			return nil, err
		}
		defer r.scratch.Close()
	}
	epoch0 := e.srv.Epoch()
	var pool0 disk.PoolCounters
	if e.db != nil {
		pool0 = e.db.Pool()
	}
	for i := 0; i < e.w.TraceOps; i++ {
		o, ok := e.w.Streams[0].next()
		if !ok {
			break
		}
		r.count["ops"]++
		switch o.Kind {
		case opQuery:
			r.query(i, o)
		case opAppend:
			r.write(i, o)
		}
	}
	r.count["epochs"] = float64(e.srv.Epoch() - epoch0)
	r.count["page_versions"] = float64(e.srv.PageVersions())
	if e.db != nil {
		p := e.db.Pool()
		r.count["pool_hits"] = float64(p.Hits - pool0.Hits)
		r.count["pool_misses"] = float64(p.Misses - pool0.Misses)
		r.count["pool_evictions"] = float64(p.Evictions - pool0.Evictions)
		// One scan with nothing resident.
		e.db.DropCaches()
		ref := e.w.Refs[1]
		cold := ref.Span.Intersect(seq.NewSpan(1, 8192))
		r.add("cold_scan_ms", r.call(-1, -1, "disk.cold_scan", false, func() error {
			_, err := r.sess.Query(ref.SEQL, cold)
			return err
		})/1e3)
	}
	return r, nil
}
