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
package seqproc

import (
	"fmt"
	"sort"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/grouping"
	"repro/internal/matview"
	"repro/internal/meta"
	"repro/internal/parser"
	"repro/internal/seq"
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
	// Grouping is a collection of same-schema sequences queried
	// collectively (the §5.1 sequence-groupings extension).
	Grouping = grouping.Grouping
	// GroupTemplate instantiates a query for one grouping member.
	GroupTemplate = grouping.Template
)

// NewGrouping creates a sequence grouping over the schema.
var NewGrouping = grouping.New

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

// DB is a catalog of base sequences plus optimizer configuration.
//
// A DB is not safe for concurrent mutation: CreateSequence, Drop,
// Append, SetOptions and Reorganize must be externally synchronized.
// Read-side operations (Query building, Run, Probe, Explain) may run
// concurrently with each other; page-access counters are atomic.
type DB struct {
	seqs  map[string]*dbSeq
	opts  Options
	views *matview.Registry
	// disk is the durable tier of an Open'd database (persist.go);
	// nil for New'd in-memory databases.
	disk *disk.DB
	// noIVM disables incremental view maintenance: base writes
	// invalidate views instead of stitching them (SetViewMaintenance).
	noIVM bool
	// maintReports accumulates maintenance decisions until
	// TakeMaintenanceReports drains them.
	maintReports []matview.MaintenanceReport
}

type dbSeq struct {
	name string
	// store is a snapshot of the latest version, re-forked after every
	// mutation with the same counters so PageStats accumulates across
	// versions.
	store storage.Store
	stats map[int]expr.ColStats
	// Exactly one tier holds the versions: mem for New'd databases,
	// dseq (the durable sequence) for Open'd ones.
	mem  *storage.Versioned
	dseq *disk.Seq
}

// refresh points store at the latest version after a mutation, keeping
// the accumulated page counters.
func (s *dbSeq) refresh() {
	if s.dseq != nil {
		s.store = s.dseq.Latest().Fork(s.store.Stats())
		return
	}
	// Library queries resolve their leaves when they run, so nothing
	// reads the superseded versions.
	s.mem.GC(s.mem.LatestEpoch())
	s.store = s.mem.Latest().Fork(s.store.Stats())
}

// node mints a fresh algebra leaf over the stored sequence. Every
// mention of a sequence gets its own node so query graphs stay trees
// (the paper's §2.2 restriction): the top-down span pass assigns each
// occurrence its own access span, which would be wrong for a shared
// node (e.g. compose(ibm, offset(ibm, 100)) needs different ranges of
// ibm on the two paths).
func (s *dbSeq) node() *algebra.Node {
	return algebra.BaseWithStats(s.name, s.store, s.stats)
}

// New creates an empty database with default optimizer options.
func New() *DB {
	return &DB{seqs: make(map[string]*dbSeq), views: matview.New()}
}

// SetOptions replaces the optimizer options used by subsequent queries.
func (db *DB) SetOptions(opts Options) { db.opts = opts }

// CreateSequence registers a base sequence under the given name, packing
// the materialized data into the chosen storage representation and
// computing column statistics for the optimizer.
func (db *DB) CreateSequence(name string, data *seq.Materialized, kind StorageKind) error {
	if name == "" {
		return fmt.Errorf("seqproc: empty sequence name")
	}
	if _, dup := db.seqs[name]; dup {
		return fmt.Errorf("seqproc: sequence %q already exists", name)
	}
	if db.disk != nil {
		if err := db.disk.CreateSequence(name, data, kind); err != nil {
			return err
		}
		ds, _ := db.disk.Seq(name)
		db.seqs[name] = &dbSeq{
			name:  name,
			store: ds.Latest().Fork(&storage.Stats{}),
			stats: meta.StatsFromMaterialized(data),
			dseq:  ds,
		}
		return nil
	}
	mem, err := storage.NewVersioned(data, kind, 0, 0)
	if err != nil {
		return err
	}
	db.seqs[name] = &dbSeq{
		name:  name,
		store: mem.Latest(),
		stats: meta.StatsFromMaterialized(data),
		mem:   mem,
	}
	return nil
}

// MustCreateSequence is CreateSequence panicking on error, for examples
// and tests.
func (db *DB) MustCreateSequence(name string, data *seq.Materialized, kind StorageKind) {
	if err := db.CreateSequence(name, data, kind); err != nil {
		panic(err)
	}
}

// DropSequence removes a base sequence, invalidating every view whose
// block reads it.
func (db *DB) DropSequence(name string) error {
	s, ok := db.seqs[name]
	if !ok {
		return fmt.Errorf("seqproc: unknown sequence %q", name)
	}
	if s.dseq != nil {
		if err := db.disk.DropSequence(name); err != nil {
			return err
		}
	}
	delete(db.seqs, name)
	db.views.InvalidateBase(name)
	return nil
}

// Sequences lists the registered sequence names, sorted.
func (db *DB) Sequences() []string {
	out := make([]string, 0, len(db.seqs))
	for name := range db.seqs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Describe returns the schema, span and density of a base sequence.
func (db *DB) Describe(name string) (seq.Info, error) {
	s, ok := db.seqs[name]
	if !ok {
		return seq.Info{}, fmt.Errorf("seqproc: unknown sequence %q", name)
	}
	return s.store.Info(), nil
}

// Append adds a record beyond the end of a sparse base sequence (the
// dynamic-arrival path of the §5.3 trigger-mode extension).
func (db *DB) Append(name string, pos Pos, rec Record) error {
	s, ok := db.seqs[name]
	if !ok {
		return fmt.Errorf("seqproc: unknown sequence %q", name)
	}
	if s.dseq != nil {
		// WAL-logged append: durable (or queued for group commit)
		// before the new version publishes. The disk tier deletes
		// persisted views reading this base eagerly; the in-memory
		// registry maintains its generations incrementally.
		if _, err := db.disk.Append(name, seq.Entry{Pos: pos, Rec: rec}); err != nil {
			return err
		}
	} else if err := s.mem.Append(seq.Entry{Pos: pos, Rec: rec}, s.mem.LatestEpoch()+1); err != nil {
		return err
	}
	s.refresh()
	// Views over this base are maintained incrementally: the delta halo
	// of the appended position is re-evaluated and stitched in; views
	// not worth stitching are shrunk or invalidated.
	db.maintainBase(name, seq.NewSpan(pos, pos))
	return nil
}

// maintainBase runs incremental view maintenance after the named base
// changed over delta. With maintenance disabled it falls back to the old
// invalidate-everything behavior; a view whose maintenance fails is
// invalidated by the planner (never left stale), so the append itself
// cannot fail here.
func (db *DB) maintainBase(name string, delta Span) {
	if db.noIVM {
		db.views.InvalidateBase(name)
		return
	}
	reports, _ := core.MaintainViews(db.views, name, delta, 0, db.sequence, db.opts)
	db.maintReports = append(db.maintReports, reports...)
}

// sequence resolves a base name to the latest version of its sequence.
func (db *DB) sequence(name string) (seq.Sequence, bool) {
	s, ok := db.seqs[name]
	if !ok {
		return nil, false
	}
	return s.store, true
}

// SetViewMaintenance toggles incremental view maintenance (default on).
// When off, Append and Reorganize invalidate every view reading the
// written base, as before.
func (db *DB) SetViewMaintenance(on bool) { db.noIVM = !on }

// TakeMaintenanceReports drains the accumulated per-view maintenance
// decisions (delta halo, chosen action, stitch-vs-recompute costs) made
// by Append and Reorganize since the last call.
func (db *DB) TakeMaintenanceReports() []matview.MaintenanceReport {
	out := db.maintReports
	db.maintReports = nil
	return out
}

// Reorganize repacks a base sequence into a different physical
// representation — the §5.3 suggestion that "it might be efficient to
// first reorganize their physical representations before running the
// query". Dense favors probing (O(1) page per probe); Sparse favors
// scanning at low density and supports Append.
func (db *DB) Reorganize(name string, kind StorageKind) error {
	s, ok := db.seqs[name]
	if !ok {
		return fmt.Errorf("seqproc: unknown sequence %q", name)
	}
	if s.dseq != nil {
		if _, err := db.disk.Reorganize(name, kind); err != nil {
			return err
		}
	} else if err := s.mem.Reorganize(kind, s.mem.LatestEpoch()+1); err != nil {
		return err
	}
	s.refresh()
	// Reorganization preserves logical content: the delta is empty, so
	// maintenance keeps every view (or invalidates them all when
	// maintenance is off).
	db.maintainBase(name, seq.EmptySpan)
	return nil
}

// PageStats returns the cumulative page-access counters of a base
// sequence — the experiments' cost ground truth.
func (db *DB) PageStats(name string) (storage.StatsSnapshot, error) {
	s, ok := db.seqs[name]
	if !ok {
		return storage.StatsSnapshot{}, fmt.Errorf("seqproc: unknown sequence %q", name)
	}
	return s.store.Stats().Snapshot(), nil
}

// TakePageStats atomically snapshots and zeroes the page-access
// counters of a base sequence — the metered-region read. Unlike a
// Snapshot followed by Reset, the single swap per counter loses no
// touches that race the region boundary, so back-to-back regions
// partition the counts exactly.
func (db *DB) TakePageStats(name string) (storage.StatsSnapshot, error) {
	s, ok := db.seqs[name]
	if !ok {
		return storage.StatsSnapshot{}, fmt.Errorf("seqproc: unknown sequence %q", name)
	}
	return s.store.Stats().SnapshotAndReset(), nil
}

// ResetPageStats zeroes the page-access counters of every sequence.
func (db *DB) ResetPageStats() {
	for _, s := range db.seqs {
		s.store.Stats().Reset()
	}
}

// catalog adapts the DB to the parser's catalog interface.
func (db *DB) catalog() parser.Catalog {
	return parser.CatalogFunc(func(name string) (*algebra.Node, bool) {
		s, ok := db.seqs[name]
		if !ok {
			return nil, false
		}
		return s.node(), true
	})
}

// Materialize evaluates a SEQL query over a bounded span and registers
// the result as a named materialized view. Later queries whose blocks
// are canonically equal to (or subsume, for selections) the view's
// block over a covered span are answered from the view when the cost
// model prefers it. Views are maintained incrementally: Append on a base
// the view reads re-evaluates only the delta halo and stitches it into
// the stored data (or shrinks/invalidates the view when stitching is not
// worth it — see SetViewMaintenance); Reorganize preserves content and
// leaves views intact; DropSequence invalidates them.
func (db *DB) Materialize(name, seql string, span Span) (ViewCounters, error) {
	if !span.Bounded() {
		return ViewCounters{}, fmt.Errorf("seqproc: materialize %q needs a bounded span, got %s", name, span)
	}
	q, err := db.Query(seql)
	if err != nil {
		return ViewCounters{}, err
	}
	res, err := q.optimize(span)
	if err != nil {
		return ViewCounters{}, err
	}
	out, err := res.Run()
	if err != nil {
		return ViewCounters{}, err
	}
	v, err := db.views.Register(name, res.Rewritten, out, res.RunSpan)
	if err != nil {
		return ViewCounters{}, err
	}
	if err := db.persistView(name, seql, res, out); err != nil {
		return ViewCounters{}, err
	}
	return v.Counters(), nil
}

// ListViews returns the usage counters of every registered view, sorted
// by name.
func (db *DB) ListViews() []ViewCounters {
	views := db.views.Views()
	out := make([]ViewCounters, 0, len(views))
	for _, v := range views {
		out = append(out, v.Counters())
	}
	return out
}

// DropView removes a materialized view (and its persisted copy, for
// durable databases).
func (db *DB) DropView(name string) error {
	if !db.views.Drop(name) {
		return fmt.Errorf("seqproc: unknown view %q", name)
	}
	if db.disk != nil {
		// The persisted copy may already be gone: base writes delete
		// persisted views eagerly.
		for _, v := range db.disk.Views() {
			if v.Name == name {
				return db.disk.DropViewAt(name, db.disk.Epoch())
			}
		}
	}
	return nil
}

// Query parses a SEQL query against the catalog. The query is not yet
// optimized; optimization happens per Run/Probe/ExplainSpan, because the
// chosen plan depends on the requested range and on the data present
// when it runs.
func (db *DB) Query(seql string) (*Query, error) {
	root, err := parser.Bind(seql, db.catalog())
	if err != nil {
		return nil, err
	}
	return &Query{db: db, root: root, src: seql}, nil
}

// QueryNode wraps an already built algebra graph as a query. It is the
// programmatic alternative to SEQL for embedders that construct algebra
// trees directly.
func (db *DB) QueryNode(root *algebra.Node) *Query {
	return &Query{db: db, root: root}
}

// Base returns a fresh algebra leaf for a registered sequence, for
// programmatic graph construction. Each call returns a new node: use a
// separate leaf per occurrence so the query graph remains a tree.
func (db *DB) Base(name string) (*algebra.Node, error) {
	s, ok := db.seqs[name]
	if !ok {
		return nil, fmt.Errorf("seqproc: unknown sequence %q", name)
	}
	return s.node(), nil
}

// Query is a parsed, bound query.
type Query struct {
	db   *DB
	root *algebra.Node
	src  string
}

// Node returns the query's logical algebra graph.
func (q *Query) Node() *algebra.Node { return q.root }

// String renders the logical operator tree.
func (q *Query) String() string { return q.root.String() }

// optimize runs the §4 pipeline for the given range, matching the
// query's blocks against the DB's materialized views (§3.4–3.5 of
// DESIGN.md) unless the options name a registry of their own. Base
// leaves are resolved here, not when the query was built: every write
// publishes a new version, and a query (or Monitor) bound before it must
// see it. Leaves of sequences dropped since run against what they held.
func (q *Query) optimize(span Span) (*core.Result, error) {
	opts := q.db.opts
	if opts.Views == nil {
		opts.Views = q.db.views
	}
	root, err := matview.Rebind(q.root, q.db.sequence)
	if err != nil {
		return nil, err
	}
	return core.Optimize(root, span, opts)
}

// Run optimizes and evaluates the query over the requested range in
// stream mode, returning the materialized result.
func (q *Query) Run(span Span) (*ResultSet, error) {
	res, err := q.optimize(span)
	if err != nil {
		return nil, err
	}
	m, err := res.Run()
	if err != nil {
		return nil, err
	}
	return &ResultSet{mat: m, opt: res}, nil
}

// Probe optimizes for probed access and evaluates the query at the given
// positions.
func (q *Query) Probe(span Span, positions []Pos) ([]Entry, error) {
	res, err := q.optimize(span)
	if err != nil {
		return nil, err
	}
	return res.Probe(positions)
}

// Explain returns the physical plan chosen for the given range, with
// estimated cost and optimizer statistics.
func (q *Query) Explain(span Span) (string, error) {
	res, err := q.optimize(span)
	if err != nil {
		return "", err
	}
	mode := "stream-access (single scan, cache-finite)"
	if !res.StreamAccess {
		mode = "not stream-access (unbounded forward scope)"
	}
	return fmt.Sprintf("plan (stream cost %.2f, per-probe cost %.2f, %s, cache budget %d records):\n%s\nannotated query (span/density propagation):\n%s",
		res.Cost.Stream, res.Cost.ProbePer, mode, res.CacheBudget, res.Explain(), res.ExplainMeta()), nil
}

// RunAnalyze optimizes and evaluates the query over the requested range
// with per-operator instrumentation, returning the execution metrics
// together with the output. The instrumented run produces the same
// result as Run (same plan, fresh operator caches); the metrics add
// per-record overhead, so use Run for timing-sensitive evaluation.
func (q *Query) RunAnalyze(span Span) (*Analysis, error) {
	res, err := q.optimize(span)
	if err != nil {
		return nil, err
	}
	return res.RunAnalyze()
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
	res, err := q.optimize(span)
	if err != nil {
		return 0, 0, err
	}
	return res.Cost.Stream, res.Cost.ProbePer, nil
}

// Stats optimizes the query for the range and returns the optimizer
// counters (rules fired, blocks, DP plans evaluated/stored).
func (q *Query) Stats(span Span) (OptStats, error) {
	res, err := q.optimize(span)
	if err != nil {
		return OptStats{}, err
	}
	return res.Stats, nil
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
