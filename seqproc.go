// Package seqproc is a sequence database engine: the public API of this
// reproduction of "Sequence Query Processing" (Seshadri, Livny,
// Ramakrishnan, SIGMOD 1994).
//
// A DB holds named base sequences (positionally ordered records stored
// in paged dense or sparse representations). Queries are written in
// SEQL, a small functional language over the paper's operators —
// selection, projection, positional and value offsets, windowed and
// cumulative aggregates, and compose (positional join):
//
//	db := seqproc.New()
//	db.CreateSequence("ibm", ibmData, seqproc.Sparse)
//	db.CreateSequence("hp", hpData, seqproc.Sparse)
//	q, err := db.Query("select(compose(ibm, hp), ibm.close > hp.close)")
//	res, err := q.Run(seqproc.NewSpan(1, 750))
//
// Each Run optimizes the query with the paper's full pipeline: rewrite
// transformations (§3.1), bidirectional span and density propagation
// (§3.2), cost-based choice of access modes and join strategies per
// block via a Selinger-style dynamic program (§4), and cache-strategy
// selection for non-unit-scope operators (§3.5). Explain shows the
// chosen physical plan.
//
// A DB runs on the same engine the seqd server serves (internal/server),
// in-process: it is safe for concurrent use, every write publishes a new
// epoch, and every run plans and reads against the snapshot of the epoch
// it pins.
package seqproc

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/matview"
	"repro/internal/parser"
	"repro/internal/seq"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/storage/disk"
)

// Re-exported core types, so API users need no internal imports.
type (
	// Span is an inclusive range of positions.
	Span = seq.Span
	// Pos is a sequence position.
	Pos = seq.Pos
	// Record is a tuple of values; nil is the Null record.
	Record = seq.Record
	// Value is one atomic value.
	Value = seq.Value
	// Field is a named, typed attribute.
	Field = seq.Field
	// Schema is a record type.
	Schema = seq.Schema
	// Entry is a (position, record) pair.
	Entry = seq.Entry
	// Options tune the optimizer (ablation and strategy knobs).
	Options = core.Options
	// OptStats reports optimizer counters (Property 4.1).
	OptStats = core.Stats
	// Analysis is an EXPLAIN ANALYZE result: per-node execution metrics
	// next to the optimizer's predictions (see OBSERVABILITY.md).
	Analysis = core.Analysis
	// NodeMetrics is the per-operator counter block of an Analysis tree.
	NodeMetrics = exec.NodeMetrics
	// PageStatsSnapshot is an immutable copy of page-access counters.
	PageStatsSnapshot = storage.StatsSnapshot
	// StorageKind selects a physical representation.
	StorageKind = storage.Kind
	// Type is an atomic value type.
	Type = seq.Type
	// SequenceData is in-memory sequence content, the input to
	// CreateSequence.
	SequenceData = seq.Materialized
	// ViewCounters is the usage summary of one materialized view
	// (records, hits, misses, page accesses).
	ViewCounters = matview.Counters
)

// The atomic types.
const (
	TInt    = seq.TInt
	TFloat  = seq.TFloat
	TString = seq.TString
	TBool   = seq.TBool
)

// Storage kinds.
const (
	// Dense stores every position of the valid range; probes are O(1).
	Dense = storage.KindDense
	// Sparse stores only non-Null records; probes descend an index.
	Sparse = storage.KindSparse
)

// Value constructors and span helpers, re-exported.
var (
	Int         = seq.Int
	Float       = seq.Float
	Str         = seq.Str
	Bool        = seq.Bool
	NewSpan     = seq.NewSpan
	NewSchema   = seq.NewSchema
	MustSchema  = seq.MustSchema
	NewData     = seq.NewMaterialized
	MustData    = seq.MustMaterialized
	NewConstant = seq.NewConstant
	AllSpan     = seq.AllSpan
)

// DB is a catalog of base sequences plus optimizer configuration: a
// facade over one in-process server.Server, the same engine seqd
// serves, with the DB's options as its planner session.
//
// A DB is safe for concurrent use. Every write (CreateSequence,
// DropSequence, Append, Reorganize, Materialize, DropView) publishes a
// new epoch under the engine's single writer lock; every read (Run,
// Probe, Explain, RunAnalyze) pins the current epoch and plans against
// its page snapshots, so it never observes a write half done. SetOptions
// applies to the reads and materializations that start after it. Reads
// share the engine's worker pool (GOMAXPROCS slots): each binds, plans
// and runs holding one slot, so at most that many run at once and the
// rest queue, pinning nothing while they wait.
type DB struct {
	srv  *server.Server
	sess atomic.Pointer[server.Session] // the DB's options (SetOptions)
	// disk is the durable tier of an Open'd database (persist.go);
	// nil for New'd in-memory databases.
	disk *disk.DB
}

// New creates an empty database with default optimizer options.
func New() *DB {
	db := &DB{srv: server.New(server.Config{Name: "seqproc"})}
	db.SetOptions(Options{})
	return db
}

// SetOptions replaces the optimizer options used by subsequent queries.
// Options.Views, when set, replaces the DB's own view registry.
func (db *DB) SetOptions(opts Options) {
	db.sess.Store(db.srv.NewSessionWith("seqproc", opts))
}

// libErr reports an engine error in the library's terms: the wire error
// code is the server's business.
func libErr(err error) error {
	var se *server.Error
	if errors.As(err, &se) {
		return fmt.Errorf("seqproc: %w", se.Err)
	}
	return err
}

// wrote finishes a write: a memory-tier database holds no superseded
// versions or invalidated views past the readers still pinning them. An
// Open'd database reclaims its versions on GC.
func (db *DB) wrote(err error) error {
	if err == nil && db.disk == nil {
		db.srv.GCOnce()
	}
	return libErr(err)
}

// Connect opens an in-process connection to the DB's engine and returns
// its client end, served by the handler seqd runs for a TCP client
// (docs/PROTOCOL.md): wrap it in a wire client to drive the DB through
// the protocol. Close it to end the session.
func (db *DB) Connect() net.Conn {
	client, srv := net.Pipe()
	db.srv.ServeConn(srv)
	return client
}

// CreateSequence registers a base sequence under the given name, packing
// the materialized data into the chosen storage representation and
// computing column statistics for the optimizer.
func (db *DB) CreateSequence(name string, data *seq.Materialized, kind StorageKind) error {
	return libErr(db.srv.CreateSequence(name, data, kind))
}

// MustCreateSequence is CreateSequence panicking on error, for examples
// and tests.
func (db *DB) MustCreateSequence(name string, data *seq.Materialized, kind StorageKind) {
	if err := db.CreateSequence(name, data, kind); err != nil {
		panic(err)
	}
}

// DropSequence removes a base sequence, invalidating every view whose
// block reads it and ending every subscription that reads it (with a
// final delta emptying its span). Queries bound to it fail from then on.
func (db *DB) DropSequence(name string) error {
	return db.wrote(db.srv.DropSequence(name))
}

// Sequences lists the registered sequence names, sorted.
func (db *DB) Sequences() []string { return db.srv.Sequences() }

// Describe returns the schema, span and density of a base sequence.
func (db *DB) Describe(name string) (seq.Info, error) {
	n, ok := db.srv.Catalog().Resolve(name)
	if !ok {
		return seq.Info{}, fmt.Errorf("seqproc: unknown sequence %q", name)
	}
	return n.Seq.Info(), nil
}

// Append adds a record beyond the end of a sparse base sequence (the
// dynamic-arrival path of the §5.3 trigger-mode extension). Views over
// the base are maintained incrementally: the delta halo of the appended
// position is re-evaluated and stitched in; views not worth stitching
// are shrunk or invalidated.
func (db *DB) Append(name string, pos Pos, rec Record) error {
	_, err := db.srv.Append(name, pos, rec)
	return db.wrote(err)
}

// SetViewMaintenance toggles incremental view maintenance (default on).
// When off, Append and Reorganize invalidate every view reading the
// written base, as before.
func (db *DB) SetViewMaintenance(on bool) { db.srv.SetViewMaintenance(on) }

// TakeMaintenanceReports drains the accumulated per-view maintenance
// decisions (delta halo, chosen action, stitch-vs-recompute costs) made
// by Append and Reorganize since the last call. The log keeps only the
// 16 384 most recent reports: a caller draining less often loses the
// oldest.
func (db *DB) TakeMaintenanceReports() []matview.MaintenanceReport {
	return db.srv.TakeMaintenanceReports()
}

// Reorganize repacks a base sequence into a different physical
// representation — the §5.3 suggestion that "it might be efficient to
// first reorganize their physical representations before running the
// query". Dense favors probing (O(1) page per probe); Sparse favors
// scanning at low density and supports Append. Reorganization preserves
// logical content, so maintenance keeps every view.
func (db *DB) Reorganize(name string, kind StorageKind) error {
	_, err := db.srv.Reorganize(name, kind)
	return db.wrote(err)
}

// PageStats returns the cumulative page-access counters of a base
// sequence — the experiments' cost ground truth.
func (db *DB) PageStats(name string) (storage.StatsSnapshot, error) {
	st, err := db.srv.PageStats(name)
	if err != nil {
		return storage.StatsSnapshot{}, libErr(err)
	}
	return st.Snapshot(), nil
}

// TakePageStats atomically snapshots and zeroes the page-access
// counters of a base sequence — the metered-region read. Unlike a
// Snapshot followed by Reset, the single swap per counter loses no
// touches that race the region boundary, so back-to-back regions
// partition the counts exactly.
func (db *DB) TakePageStats(name string) (storage.StatsSnapshot, error) {
	st, err := db.srv.PageStats(name)
	if err != nil {
		return storage.StatsSnapshot{}, libErr(err)
	}
	return st.SnapshotAndReset(), nil
}

// ResetPageStats zeroes the page-access counters of every sequence.
func (db *DB) ResetPageStats() {
	for _, name := range db.Sequences() {
		if st, err := db.srv.PageStats(name); err == nil {
			st.Reset()
		}
	}
}

// Materialize evaluates a SEQL query over a bounded span and registers
// the result as a named materialized view. Later queries whose blocks
// are canonically equal to (or subsume, for selections) the view's
// block over a covered span are answered from the view when the cost
// model prefers it. Views are maintained incrementally: Append on a base
// the view reads re-evaluates only the delta halo and stitches it into
// the stored data (or shrinks/invalidates the view when stitching is not
// worth it — see SetViewMaintenance); Reorganize preserves content and
// leaves views intact; DropSequence invalidates them. A write to a base
// the view reads while it is computed fails the call; retry it.
func (db *DB) Materialize(name, seql string, span Span) (ViewCounters, error) {
	if _, _, err := db.sess.Load().Materialize(name, seql, span); err != nil {
		return ViewCounters{}, libErr(err)
	}
	for _, v := range db.ListViews() {
		if v.Name == name {
			return v, nil
		}
	}
	return ViewCounters{Name: name}, nil
}

// ListViews returns the usage counters of every live view, sorted by
// name.
func (db *DB) ListViews() []ViewCounters {
	var out []ViewCounters
	for _, v := range db.srv.ViewCounters() {
		if v.InvalidFrom == 0 {
			out = append(out, v)
		}
	}
	return out
}

// DropView removes a materialized view (and its persisted copy, for
// durable databases).
func (db *DB) DropView(name string) error { return libErr(db.srv.DropView(name)) }

// Query parses a SEQL query against the catalog. The query is not yet
// optimized; optimization happens per Run/Probe/ExplainSpan, because the
// chosen plan depends on the requested range and on the data present
// when it runs.
func (db *DB) Query(seql string) (*Query, error) {
	root, err := parser.Bind(seql, db.srv.Catalog())
	if err != nil {
		return nil, err
	}
	return &Query{db: db, root: root}, nil
}

// Query is a parsed, bound query.
type Query struct {
	db   *DB
	root *algebra.Node
}

// Node returns the query's logical algebra graph.
func (q *Query) Node() *algebra.Node { return q.root }

// String renders the logical operator tree.
func (q *Query) String() string { return q.root.String() }

// plan runs fn on the §4 pipeline's plan for the given range, matching
// the query's blocks against the DB's materialized views (§3.4–3.5 of
// DESIGN.md) unless the options name a registry of their own. Base
// leaves are resolved per plan, not when the query was built: every
// write publishes a new version, and a query (or Monitor) bound before
// it must see it. A query over a sequence dropped since fails.
func (q *Query) plan(span Span, fn func(*core.Result) error) error {
	return libErr(q.db.sess.Load().Plan(q.root, span, fn))
}

// Run optimizes and evaluates the query over the requested range in
// stream mode, returning the materialized result.
func (q *Query) Run(span Span) (*ResultSet, error) {
	var rs *ResultSet
	err := q.plan(span, func(res *core.Result) error {
		m, err := res.Run()
		rs = &ResultSet{mat: m, opt: res}
		return err
	})
	if err != nil {
		return nil, err
	}
	return rs, nil
}

// Probe optimizes for probed access and evaluates the query at the given
// positions.
func (q *Query) Probe(span Span, positions []Pos) ([]Entry, error) {
	var out []Entry
	err := q.plan(span, func(res *core.Result) (err error) {
		out, err = res.Probe(positions)
		return err
	})
	return out, err
}

// Explain returns the physical plan chosen for the given range, with
// estimated cost and optimizer statistics.
func (q *Query) Explain(span Span) (string, error) {
	var text string
	err := q.plan(span, func(res *core.Result) error {
		text = res.ExplainText("plan")
		return nil
	})
	return text, err
}

// RunAnalyze optimizes and evaluates the query over the requested range
// with per-operator instrumentation, returning the execution metrics
// together with the output. The instrumented run produces the same
// result as Run (same plan, fresh operator caches); the metrics add
// per-record overhead, so use Run for timing-sensitive evaluation.
func (q *Query) RunAnalyze(span Span) (*Analysis, error) {
	var a *Analysis
	err := q.plan(span, func(res *core.Result) (err error) {
		a, err = res.RunAnalyze()
		return err
	})
	return a, err
}

// ExplainAnalyze runs the query over the given range with per-operator
// instrumentation and renders predicted-vs-actual metrics for every plan
// node — rows, probe Nulls, attributed page accesses, cache activity and
// wall time. See OBSERVABILITY.md for how to read the output.
func (q *Query) ExplainAnalyze(span Span) (string, error) {
	a, err := q.RunAnalyze(span)
	if err != nil {
		return "", err
	}
	return a.Render(), nil
}

// EstimatedCost optimizes for the range and returns the cost model's
// estimates: the total stream-evaluation cost and the per-probe cost,
// in sequential-page-read units.
func (q *Query) EstimatedCost(span Span) (stream, probePer float64, err error) {
	err = q.plan(span, func(res *core.Result) error {
		stream, probePer = res.Cost.Stream, res.Cost.ProbePer
		return nil
	})
	return stream, probePer, err
}

// Stats optimizes the query for the range and returns the optimizer
// counters (rules fired, blocks, DP plans evaluated/stored).
func (q *Query) Stats(span Span) (OptStats, error) {
	var st OptStats
	err := q.plan(span, func(res *core.Result) error {
		st = res.Stats
		return nil
	})
	return st, err
}

// ResultSet is a materialized query result.
type ResultSet struct {
	mat *seq.Materialized
	opt *core.Result
}

// Schema returns the result record type.
func (r *ResultSet) Schema() *Schema { return r.mat.Info().Schema }

// Entries returns the (position, record) pairs in positional order.
func (r *ResultSet) Entries() []Entry { return r.mat.Entries() }

// Count returns the number of non-Null result records.
func (r *ResultSet) Count() int { return r.mat.Count() }

// Materialized exposes the result as a sequence, so it can be registered
// back into a DB (view materialization).
func (r *ResultSet) Materialized() *seq.Materialized { return r.mat }

// Plan returns the executed physical plan rendering.
func (r *ResultSet) Plan() string { return r.opt.Explain() }

// OptimizerStats returns the counters from the optimization that
// produced this result.
func (r *ResultSet) OptimizerStats() OptStats { return r.opt.Stats }
