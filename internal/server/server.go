// Package server is the engine: one optimizer and executor over
// versioned base sequences with page-level snapshot isolation. It serves
// seqd's clients over the wire and, in-process, the seqproc library,
// whose DB is a facade over one Server.
//
// A Server owns the shared state — versioned base sequences
// (storage.Versioned), the global epoch tracker, the materialized-view
// registry with epoch validity windows, and the self-calibrating cost
// model — and hands each client a Session carrying its own planner
// options. Reads never block writes and writes never block reads:
//
//   - Every read turn pins the current epoch and plans against an
//     epoch-sliced catalog whose leaves are immutable page snapshots
//     (storage.Versioned.SnapshotAt) plus an epoch-sliced view registry
//     (matview.Registry.At). The planlint snapshot/* verifier re-checks
//     every plan before execution.
//   - Every write (Append, Reorganize, view registration) runs under one
//     global writer mutex: it publishes new page versions at epoch
//     current+1 and only then advances the tracker, so a pinned epoch
//     always denotes fully-published state.
//
// Execution is multiplexed onto a bounded worker pool; requests queue
// when the pool is saturated, and the time spent queuing is reported per
// query (wire.ResultDone.QueueNs) so operators can size the pool (see
// docs/OPERATIONS.md). The wire layer lives in conn.go; this file is the
// engine, directly usable in-process (the seqproc library and the
// concurrency fuzz tests drive it without sockets).
package server

import (
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/matview"
	"repro/internal/meta"
	"repro/internal/parser"
	"repro/internal/planlint"
	"repro/internal/reopt"
	"repro/internal/seq"
	"repro/internal/storage"
	"repro/internal/storage/disk"
	"repro/internal/wire"
)

// Config configures a Server. The zero value is usable: GOMAXPROCS
// workers, default frame limit, background GC left to the caller.
type Config struct {
	// Name identifies the server in HelloAck (default "seqd").
	Name string
	// Workers bounds the number of concurrently executing requests;
	// 0 selects runtime.GOMAXPROCS(0). Planning and result encoding do
	// not occupy a worker slot — only execution does.
	Workers int
	// MaxFrame bounds incoming frames; 0 selects wire.DefaultMaxFrame.
	MaxFrame int
	// GCInterval is the period of the background epoch garbage
	// collector started by Serve; 0 disables it (GC can still be run
	// explicitly via GCOnce).
	GCInterval time.Duration
	// Verify additionally runs the full planlint rule verifier on every
	// optimization (core.Options.Verify). The snapshot/* family is
	// checked on every read regardless.
	Verify bool
	// Options seeds each new session's planner options. Views and
	// Calibration are overwritten per request with the server's shared
	// state.
	Options core.Options
}

// Error is a classified engine failure, carrying the wire error code the
// connection layer reports.
type Error struct {
	Code wire.ErrorCode
	Err  error
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %v", e.Code, e.Err) }
func (e *Error) Unwrap() error { return e.Err }

func errf(code wire.ErrorCode, format string, args ...any) *Error {
	return &Error{Code: code, Err: fmt.Errorf(format, args...)}
}

// serverSeq is one versioned base sequence plus its frozen column
// statistics (computed at load; appends do not refresh them — the
// optimizer treats them as estimates) and its cumulative page-access
// counters, which every leaf handed out counts into (PageStats). v is
// memory-backed (a storage.Versioned) or, with an attached database,
// disk-backed (diskSeq); see disk.go.
type serverSeq struct {
	name  string
	v     versionedSeq
	stats map[int]expr.ColStats
	pages *storage.Stats
}

// at returns a snapshot of the sequence at epoch counting into its
// cumulative page counters; false when it has no version that old.
func (ss *serverSeq) at(epoch int64) (storage.Store, bool) {
	snap := ss.v.SnapshotAt(epoch)
	if snap == nil {
		return nil, false
	}
	return snap.Fork(ss.pages), true
}

// Server is the shared engine state. See the package comment for the
// concurrency protocol.
//
// The declared lock order, verified by `seqvet -global` (lockorder):
// wmu is the top of the order — a writer holding it may take the seqs
// map lock, publish into a store, invalidate views and advance the
// epoch. mu may wrap store reads (PageVersions). connMu and listenMu
// are leaves: nothing is ever acquired under them, which is what lets
// Close shut connections without deadlocking against handlers.
//
// With an attached disk database, writes nest the database's own
// writer lock (and, transitively, its pool and file locks) under wmu;
// reads nest Versioned.mu under mu on both tiers, a disk sequence's
// versions living in a storage.Versioned too.
//
//seqvet:lockorder server.Server.wmu < server.Server.mu
//seqvet:lockorder server.Server.wmu < storage.EpochTracker.mu
//seqvet:lockorder server.Server.wmu < storage.Versioned.mu
//seqvet:lockorder server.Server.wmu < matview.Registry.mu
//seqvet:lockorder server.Server.wmu < disk.DB.wmu
//seqvet:lockorder server.Server.wmu < reopt.Calibration.mu
//seqvet:lockorder server.Server.mu < storage.Versioned.mu
//seqvet:lockorder leaf server.Server.connMu
//seqvet:lockorder leaf server.Server.listenMu
//seqvet:epochpin advance-under server.Server.wmu
type Server struct {
	cfg  Config
	name string

	// disk is the attached durable storage tier; nil for a pure
	// in-memory server. Written once by AttachDisk before the server
	// accepts traffic, read without synchronization afterwards.
	disk *disk.DB

	mu   sync.RWMutex // guards the seqs map structure
	seqs map[string]*serverSeq

	wmu    sync.Mutex // serializes all writers (publish-then-advance)
	epochs *storage.EpochTracker
	views  *matview.Registry
	calib  *reopt.Calibration

	// Incremental-view-maintenance decisions accumulated by writes, and
	// the standing-query subscriptions deltas are pushed to (see
	// subscribe.go). Both are guarded by wmu: every reader and writer of
	// either already holds it.
	maintReports []matview.MaintenanceReport
	subs         map[uint64]*subscription
	nextSub      uint64
	noIVM        atomic.Bool // SetViewMaintenance(false)

	sem chan struct{} // worker pool; len(sem) = executing requests

	// Cumulative counters, reported in the Analyze counter block.
	nSessions atomic.Int64 // currently connected wire sessions
	nQueries  atomic.Int64
	nAppends  atomic.Int64
	nConflict atomic.Int64

	closed   atomic.Bool
	stopGC   chan struct{}
	listenMu sync.Mutex
	ln       net.Listener
	connMu   sync.Mutex // guards conns; see track/untrack in conn.go
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
}

// New creates an empty server.
func New(cfg Config) *Server {
	if cfg.Name == "" {
		cfg.Name = "seqd"
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = wire.DefaultMaxFrame
	}
	return &Server{
		cfg:    cfg,
		name:   cfg.Name,
		seqs:   make(map[string]*serverSeq),
		epochs: storage.NewEpochTracker(),
		views:  matview.New(),
		calib:  &reopt.Calibration{},
		subs:   make(map[uint64]*subscription),
		sem:    make(chan struct{}, cfg.Workers),
		stopGC: make(chan struct{}),
	}
}

// Epoch returns the current published epoch.
func (s *Server) Epoch() int64 { return s.epochs.Current() }

// CreateSequence registers a base sequence. Safe to call while serving,
// though typically used at startup: the sequence becomes visible at the
// epoch it is published under.
func (s *Server) CreateSequence(name string, data *seq.Materialized, kind storage.Kind) error {
	if name == "" {
		return errf(wire.CodeAppend, "empty sequence name")
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.Lock()
	if _, dup := s.seqs[name]; dup {
		s.mu.Unlock()
		return errf(wire.CodeAppend, "sequence %q already exists", name)
	}
	s.mu.Unlock()
	var vs versionedSeq
	if s.disk != nil {
		// Durable create: WAL-logged and page-packed before it appears
		// in the catalog, visible at the current epoch like the memory
		// path.
		if err := s.disk.CreateSequenceAt(name, data, kind, s.epochs.Current()); err != nil {
			return &Error{Code: wire.CodeAppend, Err: err}
		}
		ds, ok := s.disk.Seq(name)
		if !ok {
			return errf(wire.CodeInternal, "sequence %q vanished after durable create", name)
		}
		vs = ds
	} else {
		v, err := storage.NewVersioned(data, kind, 0, s.epochs.Current())
		if err != nil {
			return &Error{Code: wire.CodeAppend, Err: err}
		}
		vs = v
	}
	ss := &serverSeq{name: name, v: vs, stats: meta.StatsFromMaterialized(data), pages: &storage.Stats{}}
	s.mu.Lock()
	s.seqs[name] = ss
	s.mu.Unlock()
	return nil
}

func (s *Server) lookup(name string) (*serverSeq, *Error) {
	s.mu.RLock()
	ss, ok := s.seqs[name]
	s.mu.RUnlock()
	if !ok {
		return nil, errf(wire.CodeNotFound, "unknown sequence %q", name)
	}
	return ss, nil
}

// Append adds one record beyond the end of a sparse base sequence,
// publishing a new epoch. Returns the epoch that made the write visible.
func (s *Server) Append(name string, pos seq.Pos, rec seq.Record) (int64, error) {
	ss, e := s.lookup(name)
	if e != nil {
		return 0, e
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	next := s.epochs.Current() + 1
	if err := ss.v.Append(seq.Entry{Pos: pos, Rec: rec}, next); err != nil {
		return 0, &Error{Code: wire.CodeAppend, Err: err}
	}
	// The write is published at next but not yet visible. Registered
	// views are maintained incrementally (stitched, shrunk, or — last
	// resort — frozen for readers pinned below next), and standing-query
	// subscribers get their epoch-stamped deltas framed, all before the
	// epoch advances: a pinned reader always denotes fully-maintained
	// state, and no subscriber can observe next without its delta.
	s.maintainBase(name, seq.NewSpan(pos, pos), next)
	s.publishDeltas(name, seq.NewSpan(pos, pos), next)
	if err := s.epochs.AdvanceTo(next); err != nil {
		return 0, &Error{Code: wire.CodeInternal, Err: err}
	}
	s.nAppends.Add(1)
	return next, nil
}

// maintainBase runs incremental view maintenance after base changed
// over delta, published at epoch but not yet advanced to. Called under
// wmu. The registered blocks are re-bound to the epoch's snapshots; a
// view whose maintenance fails is invalidated from epoch (never left
// stale), so the write itself cannot fail here. With maintenance off,
// every view reading the base is invalidated from epoch instead.
func (s *Server) maintainBase(name string, delta seq.Span, epoch int64) {
	if s.noIVM.Load() {
		s.views.InvalidateBaseFrom(name, epoch)
		return
	}
	opts := s.cfg.Options
	opts.Calibration = s.calib
	reports, _ := core.MaintainViews(s.views, name, delta, epoch, s.sequenceAt(epoch), opts)
	s.maintReports = append(s.maintReports, reports...)
}

// sequenceAt resolves base names to their snapshots at the epoch — the
// binding view maintenance and delta evaluation run against.
func (s *Server) sequenceAt(epoch int64) func(string) (seq.Sequence, bool) {
	return func(name string) (seq.Sequence, bool) {
		s.mu.RLock()
		ss, ok := s.seqs[name]
		s.mu.RUnlock()
		if !ok {
			return nil, false
		}
		return ss.at(epoch)
	}
}

// SetViewMaintenance toggles incremental view maintenance (default on).
// When off, Append and Reorganize invalidate every view reading the
// written base.
func (s *Server) SetViewMaintenance(on bool) { s.noIVM.Store(!on) }

// TakeMaintenanceReports drains the per-view maintenance decisions
// accumulated by writes since the last call.
func (s *Server) TakeMaintenanceReports() []matview.MaintenanceReport {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	out := s.maintReports
	s.maintReports = nil
	return out
}

// VerifyMaintenance re-checks maintenance reports (planlint ivm/*)
// against the registered views and the data at the current epoch — the
// append-vs-recompute fuzz harness's oracle hook.
func (s *Server) VerifyMaintenance(reports []matview.MaintenanceReport) []planlint.Issue {
	epoch := s.epochs.Pin()
	defer s.epochs.Release(epoch)
	return planlint.VerifyMaintenance(s.views, s.sequenceAt(epoch), reports)
}

// Reorganize repacks a base sequence into a different physical
// representation, publishing a new epoch. Readers pinned below it keep
// scanning the old representation's pages.
func (s *Server) Reorganize(name string, kind storage.Kind) (int64, error) {
	ss, e := s.lookup(name)
	if e != nil {
		return 0, e
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	next := s.epochs.Current() + 1
	if err := ss.v.Reorganize(kind, next); err != nil {
		return 0, &Error{Code: wire.CodeAppend, Err: err}
	}
	// Reorganization preserves logical content: the delta is empty, so
	// maintenance keeps every view and no subscriber delta is due.
	s.maintainBase(name, seq.EmptySpan, next)
	s.publishDeltas(name, seq.EmptySpan, next)
	if err := s.epochs.AdvanceTo(next); err != nil {
		return 0, &Error{Code: wire.CodeInternal, Err: err}
	}
	return next, nil
}

// Sequences lists the registered base sequence names, sorted.
func (s *Server) Sequences() []string {
	s.mu.RLock()
	out := make([]string, 0, len(s.seqs))
	for name := range s.seqs {
		out = append(out, name)
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out
}

// ViewCounters returns the counters of every registered view, sorted by
// name.
func (s *Server) ViewCounters() []matview.Counters {
	views := s.views.Views()
	out := make([]matview.Counters, 0, len(views))
	for _, v := range views {
		out = append(out, v.Counters())
	}
	return out
}

// DropSequence removes a base sequence at the next epoch: it is dropped
// on disk first (with an attached database), the views reading it are
// invalidated from that epoch, and then the epoch advances. A query
// bound to it before the drop fails when it next plans.
func (s *Server) DropSequence(name string) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if _, e := s.lookup(name); e != nil {
		return e
	}
	next := s.epochs.Current() + 1
	if s.disk != nil {
		if err := s.disk.DropSequenceAt(name, next); err != nil {
			return &Error{Code: wire.CodeAppend, Err: err}
		}
	}
	s.mu.Lock()
	delete(s.seqs, name)
	s.mu.Unlock()
	s.views.InvalidateBaseFrom(name, next)
	if err := s.epochs.AdvanceTo(next); err != nil {
		return &Error{Code: wire.CodeInternal, Err: err}
	}
	return nil
}

// PageStats returns the cumulative page-access counters of a base
// sequence: every leaf the server hands out counts into them, across
// versions — the experiments' cost ground truth.
func (s *Server) PageStats(name string) (*storage.Stats, error) {
	ss, e := s.lookup(name)
	if e != nil {
		return nil, e
	}
	return ss.pages, nil
}

// DropView removes a materialized view for every session. With an
// attached disk database the persisted copy is dropped too (it may
// already be gone: a base write deletes persisted views eagerly while
// the registry keeps invalidated ones for pinned readers).
func (s *Server) DropView(name string) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if !s.views.Drop(name) {
		return errf(wire.CodeNotFound, "unknown view %q", name)
	}
	if s.diskViews()[name] {
		if err := s.disk.DropViewAt(name, s.epochs.Current()); err != nil {
			return &Error{Code: wire.CodeInternal, Err: err}
		}
	}
	return nil
}

// GCOnce reclaims page versions and invalidated views unreachable by any
// pinned reader. Returns the number of sequence versions dropped, the
// pages they alone held (their disk slots freed, on the disk tier) and
// the names of reclaimed views.
func (s *Server) GCOnce() (versions, pages int, views []string) {
	minLive := s.epochs.MinLive()
	s.mu.RLock()
	seqs := make([]*serverSeq, 0, len(s.seqs))
	for _, ss := range s.seqs {
		seqs = append(seqs, ss)
	}
	s.mu.RUnlock()
	for _, ss := range seqs {
		v, p := ss.v.GC(minLive)
		versions += v
		pages += p
	}
	return versions, pages, s.views.GC(minLive)
}

// PageVersions sums the distinct page versions retained across all
// sequences — the marginal memory the MVCC layer holds beyond a
// single-version store.
func (s *Server) PageVersions() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	total := 0
	for _, ss := range s.seqs {
		total += ss.v.PageVersions()
	}
	return total
}

// acquire takes a worker slot, returning the time spent queuing.
func (s *Server) acquire() time.Duration {
	select {
	case s.sem <- struct{}{}:
		return 0
	default:
	}
	start := time.Now()
	s.sem <- struct{}{}
	return time.Since(start)
}

func (s *Server) release() { <-s.sem }

// catalogAt resolves sequence names to snapshot leaves pinned at the
// epoch: every mention mints a fresh algebra node (query graphs must be
// trees) over the same immutable page version.
func (s *Server) catalogAt(epoch int64) parser.Catalog {
	return parser.CatalogFunc(func(name string) (*algebra.Node, bool) {
		s.mu.RLock()
		ss, ok := s.seqs[name]
		s.mu.RUnlock()
		if !ok {
			return nil, false
		}
		snap, ok := ss.at(epoch)
		if !ok {
			// Sequence created after this reader pinned: invisible.
			return nil, false
		}
		return algebra.BaseWithStats(name, snap, ss.stats), true
	})
}

// Catalog resolves sequence names to leaves at the current epoch, for
// queries bound now and planned later: Session.Plan rebinds them to the
// epoch each plan pins. Each lookup pins the epoch while it takes the
// snapshot, so a concurrent write's GC cannot reclaim the version first.
func (s *Server) Catalog() parser.Catalog {
	return parser.CatalogFunc(func(name string) (*algebra.Node, bool) {
		epoch := s.epochs.Pin()
		defer s.epochs.Release(epoch)
		return s.catalogAt(epoch).Resolve(name)
	})
}

// rebindAt re-binds every base leaf of root to its sequence's snapshot
// at epoch. A leaf whose sequence is not visible at epoch fails the
// read, so a query bound before a drop never runs against what the
// dropped sequence held.
func (s *Server) rebindAt(epoch int64, root *algebra.Node) (*algebra.Node, error) {
	at := s.sequenceAt(epoch)
	missing := ""
	root, err := matview.Rebind(root, func(name string) (seq.Sequence, bool) {
		sq, ok := at(name)
		if !ok {
			missing = name
		}
		return sq, ok
	})
	if err != nil {
		return nil, &Error{Code: wire.CodePlan, Err: err}
	}
	if missing != "" {
		return nil, errf(wire.CodeNotFound, "unknown sequence %q", missing)
	}
	return root, nil
}

// baseNames collects the distinct base-sequence names a plan reads.
func baseNames(root *algebra.Node) []string {
	seen := map[string]bool{}
	var names []string
	var walk func(n *algebra.Node)
	walk = func(n *algebra.Node) {
		if n.Kind == algebra.KindBase && !seen[n.Name] {
			seen[n.Name] = true
			names = append(names, n.Name)
		}
		for _, in := range n.Inputs {
			walk(in)
		}
	}
	walk(root)
	return names
}

// ── sessions ────────────────────────────────────────────────────────

// Session is one client's view of the server: private planner options
// over the shared engine. Requests only read the options, so concurrent
// requests may share a session; SetOption must not race them (the wire
// protocol is strictly request/response per connection).
type Session struct {
	srv      *Server
	opts     core.Options
	useViews bool
	client   string
}

// NewSession opens a session with the server's base options.
func (s *Server) NewSession(client string) *Session {
	opts := s.cfg.Options
	opts.Views, opts.Calibration = nil, nil
	return s.NewSessionWith(client, opts)
}

// NewSessionWith opens a session planning with opts. A registry or a
// calibration opts names replaces the server's own.
func (s *Server) NewSessionWith(client string, opts core.Options) *Session {
	opts.Verify = opts.Verify || s.cfg.Verify
	return &Session{srv: s, opts: opts, useViews: opts.Views == nil, client: client}
}

// SetOption adjusts one session option. See docs/PROTOCOL.md for the
// names; unknown names or malformed values return CodeOption.
func (sess *Session) SetOption(name, value string) (string, error) {
	switch name {
	case "parallelism":
		var k int
		if _, err := fmt.Sscanf(value, "%d", &k); err != nil || k < 0 {
			return "", errf(wire.CodeOption, "parallelism wants an integer >= 0, got %q", value)
		}
		sess.opts.Parallelism = k
		return fmt.Sprintf("parallelism = %d", k), nil
	case "reopt":
		on, err := parseOnOff(value)
		if err != nil {
			return "", err
		}
		sess.opts.Reopt.Enabled = on
		return fmt.Sprintf("reopt = %v", on), nil
	case "views":
		on, err := parseOnOff(value)
		if err != nil {
			return "", err
		}
		sess.useViews = on
		return fmt.Sprintf("views = %v", on), nil
	case "verify":
		on, err := parseOnOff(value)
		if err != nil {
			return "", err
		}
		sess.opts.Verify = on || sess.srv.cfg.Verify
		return fmt.Sprintf("verify = %v", sess.opts.Verify), nil
	default:
		return "", errf(wire.CodeOption, "unknown option %q (have parallelism, reopt, views, verify)", name)
	}
}

func parseOnOff(v string) (bool, error) {
	switch v {
	case "on", "true", "1":
		return true, nil
	case "off", "false", "0":
		return false, nil
	default:
		return false, errf(wire.CodeOption, "want on/off, got %q", v)
	}
}

// optimizeAt binds SEQL against the epoch-pinned catalog and plans it.
func (sess *Session) optimizeAt(epoch int64, seql string, span seq.Span) (*core.Result, error) {
	root, err := parser.Bind(seql, sess.srv.catalogAt(epoch))
	if err != nil {
		return nil, &Error{Code: wire.CodeParse, Err: err}
	}
	return sess.plan(epoch, root, span)
}

// Plan runs fn on the plan of a root bound earlier (Catalog), under one
// pinned epoch: the root's leaves are rebound to the epoch's snapshots,
// planned, and verified, and the epoch stays pinned while fn runs.
func (sess *Session) Plan(root *algebra.Node, span seq.Span, fn func(*core.Result) error) error {
	epoch := sess.srv.epochs.Pin()
	defer sess.srv.epochs.Release(epoch)
	root, err := sess.srv.rebindAt(epoch, root)
	if err != nil {
		return err
	}
	res, err := sess.plan(epoch, root, span)
	if err != nil {
		return err
	}
	return fn(res)
}

// plan is the one planning step of every read, with root's leaves
// pinned at epoch: optimize with the session's options and the views
// valid at the epoch, then re-verify the snapshot/* invariants.
func (sess *Session) plan(epoch int64, root *algebra.Node, span seq.Span) (*core.Result, error) {
	opts := sess.opts
	if sess.useViews {
		opts.Views = sess.srv.views.At(epoch)
	}
	if opts.Calibration == nil {
		opts.Calibration = sess.srv.calib
	}
	res, err := core.Optimize(root, span, opts)
	if err != nil {
		return nil, &Error{Code: wire.CodePlan, Err: err}
	}
	// Independent re-derivation of the isolation invariants: every leaf
	// is a snapshot pinned at exactly this reader's epoch, and every
	// substituted view is valid at it.
	if issues := planlint.VerifySnapshot(res.Rewritten, res.Substitutions, epoch); len(issues) > 0 {
		return nil, errf(wire.CodeInternal, "snapshot invariant violated: %s", issues[0])
	}
	return res, nil
}

// QueryResult is a completed query: the materialized output plus the
// epoch it was pinned at and the timing split the wire layer reports.
type QueryResult struct {
	Fields  []seq.Field
	Entries []seq.Entry
	Epoch   int64
	Elapsed time.Duration
	Queue   time.Duration
}

// Query plans and runs a SEQL query over the span against a snapshot
// pinned for the duration of the call.
func (sess *Session) Query(seql string, span seq.Span) (*QueryResult, error) {
	epoch := sess.srv.epochs.Pin()
	defer sess.srv.epochs.Release(epoch)
	res, err := sess.optimizeAt(epoch, seql, span)
	if err != nil {
		return nil, err
	}
	queue := sess.srv.acquire()
	start := time.Now()
	out, err := res.Run()
	elapsed := time.Since(start)
	sess.srv.release()
	if err != nil {
		return nil, &Error{Code: wire.CodeExec, Err: err}
	}
	sess.srv.nQueries.Add(1)
	return &QueryResult{
		Fields:  out.Info().Schema.Fields(),
		Entries: out.Entries(),
		Epoch:   epoch,
		Elapsed: elapsed,
		Queue:   queue,
	}, nil
}

// Explain returns the rendered plan for the span without executing.
func (sess *Session) Explain(seql string, span seq.Span) (string, int64, error) {
	epoch := sess.srv.epochs.Pin()
	defer sess.srv.epochs.Release(epoch)
	res, err := sess.optimizeAt(epoch, seql, span)
	if err != nil {
		return "", 0, err
	}
	return res.ExplainText(fmt.Sprintf("plan @epoch %d", epoch)), epoch, nil
}

// Analyze executes with per-operator instrumentation, feeds the shared
// cost-model calibration, and appends the server counter block (see
// docs/OPERATIONS.md, "Server counters").
func (sess *Session) Analyze(seql string, span seq.Span) (string, int64, error) {
	epoch := sess.srv.epochs.Pin()
	defer sess.srv.epochs.Release(epoch)
	res, err := sess.optimizeAt(epoch, seql, span)
	if err != nil {
		return "", 0, err
	}
	queue := sess.srv.acquire()
	a, err := res.RunAnalyze()
	sess.srv.release()
	if err != nil {
		return "", 0, &Error{Code: wire.CodeExec, Err: err}
	}
	sess.srv.nQueries.Add(1)
	sess.srv.calib.Observe(a.Root)
	return a.Render() + "\n" + sess.srv.counterBlock(epoch, queue), epoch, nil
}

// counterBlock renders the server-side counters appended to every
// Analyze response. docs/OPERATIONS.md documents each line.
func (s *Server) counterBlock(epoch int64, queue time.Duration) string {
	return fmt.Sprintf(`server counters:
  epoch          %d    (current published epoch)
  pinned-epoch   %d    (this query's snapshot)
  min-live       %d    (oldest pinned epoch; GC floor)
  live-readers   %d
  page-versions  %d    (sequence page versions retained)
  views          %d
  sessions       %d
  workers        %d
  queue-wait     %s   (this request)
  queries        %d
  appends        %d
  conflicts      %d`,
		s.epochs.Current(), epoch, s.epochs.MinLive(), s.epochs.LiveReaders(),
		s.PageVersions(), s.views.Len(), s.nSessions.Load(), cap(s.sem),
		queue.Round(time.Microsecond), s.nQueries.Load(), s.nAppends.Load(),
		s.nConflict.Load())
}

// Materialize computes the query against a pinned snapshot and registers
// the result as a shared view valid from that epoch. If any base the
// view reads was written between pin and registration, it fails with
// CodeConflict and registers nothing — the caller retries. Alongside the
// pinned epoch it returns the time the request waited for a worker slot,
// the same pool-sizing signal Query and Analyze report (see
// docs/OPERATIONS.md).
func (sess *Session) Materialize(name, seql string, span seq.Span) (int64, time.Duration, error) {
	if !span.Bounded() {
		return 0, 0, errf(wire.CodeMaterialize, "materialize %q needs a bounded span, got %s", name, span)
	}
	srv := sess.srv
	epoch := srv.epochs.Pin()
	defer srv.epochs.Release(epoch)
	res, err := sess.optimizeAt(epoch, seql, span)
	if err != nil {
		if se, ok := err.(*Error); ok && se.Code == wire.CodePlan {
			return 0, 0, &Error{Code: wire.CodeMaterialize, Err: se.Err}
		}
		return 0, 0, err
	}
	queue := srv.acquire()
	out, err := res.Run()
	srv.release()
	if err != nil {
		return 0, queue, &Error{Code: wire.CodeExec, Err: err}
	}
	// Registration is a write: serialize with appenders and check that
	// the snapshot the view was computed from is still current for every
	// base it reads.
	srv.wmu.Lock()
	defer srv.wmu.Unlock()
	for _, base := range baseNames(res.Rewritten) {
		ss, e := srv.lookup(base)
		if e != nil {
			return 0, queue, e
		}
		if ss.v.LatestEpoch() > epoch {
			srv.nConflict.Add(1)
			return 0, queue, errf(wire.CodeConflict,
				"base %q advanced to epoch %d while materializing against epoch %d; retry",
				base, ss.v.LatestEpoch(), epoch)
		}
	}
	if _, err := srv.views.RegisterAt(name, res.Rewritten, out, res.RunSpan, epoch); err != nil {
		return 0, queue, &Error{Code: wire.CodeMaterialize, Err: err}
	}
	if err := srv.persistView(name, seql, res.RunSpan, epoch, baseNames(res.Rewritten), out); err != nil {
		return 0, queue, &Error{Code: wire.CodeMaterialize, Err: err}
	}
	return epoch, queue, nil
}

// Describe reports one sequence as of a snapshot pinned for this call.
func (sess *Session) Describe(name string) (*wire.SeqInfo, error) {
	ss, e := sess.srv.lookup(name)
	if e != nil {
		return nil, e
	}
	epoch := sess.srv.epochs.Pin()
	defer sess.srv.epochs.Release(epoch)
	snap := ss.v.SnapshotAt(epoch)
	if snap == nil {
		return nil, errf(wire.CodeNotFound, "sequence %q not visible at epoch %d", name, epoch)
	}
	info := snap.Info()
	kind := "sparse"
	if snap.Kind() == storage.KindDense {
		kind = "dense"
	}
	return &wire.SeqInfo{
		Name:    name,
		Fields:  info.Schema.Fields(),
		Start:   int64(info.Span.Start),
		End:     int64(info.Span.End),
		Density: info.Density,
		Kind:    kind,
	}, nil
}
