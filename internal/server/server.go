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
// A read binds, plans, verifies and runs (Explain too) holding one slot
// of a bounded worker pool, taken before it pins: a queued request pins
// nothing, and its wait is reported (wire.ResultDone.QueueNs) to size the
// pool (docs/OPERATIONS.md). The wire layer lives in conn.go; this file
// is the engine, directly usable in-process (the seqproc library and the
// concurrency fuzz tests drive it without sockets).
//
// A SEQL read plans once per (planner options, text shape, span, epoch):
// the server's plan cache (plancache.go) hands a read the plan an
// earlier read of the same shape made at the same epoch, for any session
// with equal options and, where the plan does not depend on them, for
// other literals; the read still takes its slot, pins, verifies and
// runs.
package server

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/matview"
	"repro/internal/meta"
	"repro/internal/parallel"
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
	// Workers bounds the reads in flight; 0 selects GOMAXPROCS. A read
	// holds its slot to bind, plan, verify and run (Explain included);
	// result encoding and writes do not occupy one.
	Workers int
	// MaxFrame bounds incoming frames; 0 selects wire.DefaultMaxFrame.
	MaxFrame int
	// GCInterval is the period of the background epoch garbage
	// collector started by Serve; 0 disables it (GC can still be run
	// explicitly via GCOnce).
	GCInterval time.Duration
	// Options seeds each new session's planner options and plans the
	// writes' halos. Views is overwritten per request with the server's
	// registry, and a nil Params plans with the server's calibration
	// (Session.Analyze). Verify runs the full planlint rule
	// verifier on every optimization, and no session can turn it off;
	// the snapshot/* family is checked on every read regardless.
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
// Close shut connections without deadlocking against handlers. The plan
// cache's lock is a leaf too.
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
//seqvet:lockorder server.Server.mu < storage.Versioned.mu
//seqvet:lockorder leaf server.Server.connMu
//seqvet:lockorder leaf server.Server.listenMu
//seqvet:lockorder leaf server.planCache.mu
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

	// Incremental-view-maintenance decisions accumulated by writes, and
	// the standing-query subscriptions deltas are pushed to (see
	// subscribe.go). Both are guarded by wmu: every reader and writer of
	// either already holds it.
	maintReports []matview.MaintenanceReport
	subs         map[uint64]*subscription
	nextSub      uint64
	noIVM        atomic.Bool // SetViewMaintenance(false)

	sem chan struct{} // worker pool; len(sem) = executing requests

	// calib is the cost-model calibration every Analyze feeds.
	calib *calibration

	// plans caches SEQL reads' plans, shared by sessions with equal
	// planner options. planGen is the plan generation: every
	// change that can alter a plan without advancing the epoch (sequence
	// create and drop, view registration and drop, calibration) bumps it
	// after the change, and a cached plan is valid only at the generation
	// its planning read before it started.
	plans       *planCache
	planGen     atomic.Uint64
	nextSession atomic.Uint64

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

// calibration regresses the cost constants from every Analyze
// (reopt.Calibration) and publishes each fit's weights, which reads and
// writes load without the regression's lock. Concurrent Analyzes may
// publish out of order; the next one publishes the fit over all
// observations again.
type calibration struct {
	reopt.Calibration
	fit atomic.Pointer[exec.CostWeights] // nil until the regression is ready
}

// observe folds an analyzed run into the regression and publishes the
// fit.
func (c *calibration) observe(root *exec.NodeMetrics) {
	c.Observe(root)
	if k, ok := c.Constants(); ok {
		w := k.Weights()
		c.fit.Store(&w)
	}
}

// calibrated returns opts planning with the calibration's latest fit
// when they name no weights of their own.
func (s *Server) calibrated(opts core.Options) core.Options {
	if opts.Params == nil {
		opts.Params = s.calib.fit.Load()
	}
	return opts
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
		subs:   make(map[uint64]*subscription),
		sem:    make(chan struct{}, cfg.Workers),
		calib:  &calibration{},
		plans:  newPlanCache(planProbation, planProtected),
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
	s.planGen.Add(1)
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
	epoch, err := s.write(name, seq.NewSpan(pos, pos), func(v versionedSeq, epoch int64) error {
		return v.Append(seq.Entry{Pos: pos, Rec: rec}, epoch)
	})
	if err == nil {
		s.nAppends.Add(1)
	}
	return epoch, err
}

// write is the one write path of Append and Reorganize: under wmu, apply
// publishes the base's new version at the next epoch, and everything
// reading the base is brought up to date before the epoch advances.
// Views are maintained (frozen from the epoch with maintenance off) and
// subscriptions get their halos as deltas, so a pinned reader sees
// maintained views and no subscriber observes the epoch without its
// delta. A failed view is invalidated and a failed halo ends its
// subscription: past apply, the write cannot fail.
func (s *Server) write(base string, delta seq.Span, apply func(v versionedSeq, epoch int64) error) (int64, error) {
	ss, e := s.lookup(base)
	if e != nil {
		return 0, e
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	epoch := s.epochs.Current() + 1
	if err := apply(ss.v, epoch); err != nil {
		return 0, &Error{Code: wire.CodeAppend, Err: err}
	}
	lookup, opts := s.sequenceAt(epoch), s.calibrated(s.cfg.Options)
	if s.noIVM.Load() {
		s.views.InvalidateBaseFrom(base, epoch)
	} else {
		reports, _ := core.MaintainViews(s.views, base, delta, epoch, lookup, opts)
		s.maintReports = append(s.maintReports, reports...)
		if over := len(s.maintReports) - maxMaintReports; over > 0 {
			s.maintReports = s.maintReports[over:]
		}
	}
	for _, sub := range s.subs {
		if !matview.ReadsBase(sub.node, base) {
			continue
		}
		h, err := core.PlanHalo(sub.node, sub.span, base, delta, lookup, opts)
		if err == nil && h.Plan == nil {
			continue // the halo misses the subscription span
		}
		var out *seq.Materialized
		if err == nil {
			out, err = h.Plan.Run()
		}
		if err != nil {
			s.end(sub, epoch)
		} else {
			_ = s.send(sub, epoch, h.Span, out.Entries()) // a failed push drops sub
		}
	}
	if err := s.epochs.AdvanceTo(epoch); err != nil {
		return 0, &Error{Code: wire.CodeInternal, Err: err}
	}
	return epoch, nil
}

// maxMaintReports bounds the maintenance-report log to its most recent
// entries: nothing drains it in seqd.
const maxMaintReports = 1 << 14

// sequenceAt resolves base names to their snapshots at the epoch — the
// binding view maintenance and delta evaluation run against.
func (s *Server) sequenceAt(epoch int64) func(string) (seq.Sequence, bool) {
	return func(name string) (seq.Sequence, bool) {
		if ss, e := s.lookup(name); e == nil {
			return ss.at(epoch)
		}
		return nil, false
	}
}

// SetViewMaintenance toggles incremental view maintenance (default on).
// When off, Append and Reorganize invalidate every view reading the
// written base.
func (s *Server) SetViewMaintenance(on bool) { s.noIVM.Store(!on) }

// TakeMaintenanceReports drains the per-view maintenance decisions
// accumulated by writes since the last call, at most the
// maxMaintReports most recent.
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
// scanning the old representation's pages. Reorganization preserves
// logical content: the delta is empty, so maintenance keeps every view
// and no subscriber delta is due.
func (s *Server) Reorganize(name string, kind storage.Kind) (int64, error) {
	return s.write(name, seq.EmptySpan, func(v versionedSeq, epoch int64) error { return v.Reorganize(kind, epoch) })
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
// invalidated from that epoch, the subscriptions reading it end (each
// with a final delta emptying its span), and then the epoch advances. A
// query bound to it before the drop fails when it next plans.
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
	s.planGen.Add(1)
	s.views.InvalidateBaseFrom(name, next)
	for _, sub := range s.subs {
		if matview.ReadsBase(sub.node, name) {
			s.end(sub, next)
		}
	}
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
	s.planGen.Add(1)
	if s.diskViews()[name] {
		if err := s.disk.DropViewAt(name, s.epochs.Current()); err != nil {
			return &Error{Code: wire.CodeInternal, Err: err}
		}
	}
	return nil
}

// GCOnce reclaims page versions, invalidated views and cached plans
// unreachable by any pinned reader. Returns the number of sequence
// versions dropped, the pages they alone held (their disk slots freed,
// on the disk tier) and the names of reclaimed views.
func (s *Server) GCOnce() (versions, pages int, views []string) {
	minLive := s.epochs.MinLive()
	s.plans.dropBelow(minLive)
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
	// base is 0 when the session's options other than those SetOption
	// sets are the server's, and a number of its own otherwise: only
	// sessions planning alike share cached plans (planOptions).
	base uint64
	// thresholdSet records an explicit "reopt threshold", so that a
	// chosen zero (replan at every checkpoint) survives "reopt on".
	thresholdSet bool
}

// NewSession opens a session with the server's base options.
func (s *Server) NewSession(client string) *Session {
	opts := s.cfg.Options
	opts.Views = nil
	return s.NewSessionWith(client, opts)
}

// NewSessionWith opens a session planning with opts. A registry or cost
// weights (Params) opts names replace the server's own.
func (s *Server) NewSessionWith(client string, opts core.Options) *Session {
	opts.Verify = opts.Verify || s.cfg.Options.Verify
	sess := &Session{srv: s, opts: opts, useViews: opts.Views == nil, client: client}
	if !reflect.DeepEqual(unsettable(opts), unsettable(s.cfg.Options)) {
		sess.base = s.nextSession.Add(1)
	}
	return sess
}

// unsettable clears the options SetOption sets, and the registry a
// request overwrites, leaving the options two sessions must share to
// share plans.
func unsettable(opts core.Options) core.Options {
	opts.Parallelism, opts.Reopt, opts.Verify, opts.Views = 0, reopt.Config{}, false, nil
	return opts
}

// planOptions returns the session's planner options as the plan cache
// keys them.
func (sess *Session) planOptions() planOptions {
	return planOptions{base: sess.base, parallelism: sess.opts.Parallelism, reopt: sess.opts.Reopt,
		verify: sess.opts.Verify, views: sess.useViews}
}

// SetOption adjusts one session option. See docs/PROTOCOL.md for the
// names; unknown names or malformed values (a number must be the whole
// value) return CodeOption.
func (sess *Session) SetOption(name, value string) (string, error) {
	switch name {
	case "parallelism":
		k, err := strconv.Atoi(value)
		if err != nil || k < 0 {
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
		// A zero threshold means "replan at every checkpoint" (the fuzz
		// mode), so enabling defaults it unless one was set.
		if on && !sess.thresholdSet && sess.opts.Reopt.Threshold == 0 {
			sess.opts.Reopt.Threshold = reopt.DefaultThreshold
		}
		return fmt.Sprintf("reopt = %v (threshold %g)", on, sess.opts.Reopt.Threshold), nil
	case "reopt interval":
		n, err := strconv.ParseInt(value, 10, 64)
		if err != nil || n < 1 {
			return "", errf(wire.CodeOption, "reopt interval wants an integer >= 1, got %q", value)
		}
		sess.opts.Reopt.CheckEvery = n
		return fmt.Sprintf("reopt interval = %d", n), nil
	case "reopt threshold":
		x, err := strconv.ParseFloat(value, 64)
		if err != nil || !(x >= 0) {
			return "", errf(wire.CodeOption, "reopt threshold wants a number >= 0, got %q", value)
		}
		sess.opts.Reopt.Threshold = x
		sess.thresholdSet = true
		return fmt.Sprintf("reopt threshold = %g", x), nil
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
		sess.opts.Verify = on || sess.srv.cfg.Options.Verify
		return fmt.Sprintf("verify = %v", sess.opts.Verify), nil
	default:
		return "", errf(wire.CodeOption, "unknown option %q (have parallelism, reopt, reopt interval, reopt threshold, views, verify)", name)
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

// read is the one path of every read: take a worker slot, pin the
// epoch, plan, re-verify the snapshot/* invariants, and run tail on the
// plan. A SEQL read parses its text once into a shape (parser.Shape) and
// takes its plan from the plan cache when an earlier read of the same
// shape and span, under equal planner options, planned one at this
// epoch and plan generation that serves the read's literals; otherwise
// it binds (the shape against the epoch's catalog, or a root bound
// earlier rebound to the epoch's snapshots) and optimizes with the
// session's options and the views valid at the epoch, and a SEQL read
// caches the verified plan. A session planning against a registry of its
// own bypasses the cache, whose generation does not track it. A queued
// request holds no pin. The slot and the pin are released when read
// returns, before any response is written; queue is the time spent
// waiting for the slot.
func (sess *Session) read(seql string, root *algebra.Node, span seq.Span, tail func(res *core.Result, epoch int64, queue time.Duration) error) error {
	srv := sess.srv
	queue := srv.acquire()
	defer srv.release()
	epoch := srv.epochs.Pin()
	defer srv.epochs.Release(epoch)
	// The generation is read before planning: a change racing the
	// planning bumps it after itself, so it retires what is cached here.
	gen := srv.planGen.Load()
	var shape *parser.Shape
	var key planKey
	var res *core.Result
	hit := false
	if root == nil {
		var err error
		if shape, err = parser.ParseShape(seql); err != nil {
			return &Error{Code: wire.CodeParse, Err: err}
		}
	}
	cacheable := shape != nil && sess.opts.Views == nil
	if cacheable {
		key = planKey{opts: sess.planOptions(), shape: shape.Key, span: span}
		var rebound bool
		res, rebound, hit = srv.plans.get(key, shape.Slots, epoch, gen)
		if rebound {
			var err error
			if res, err = res.WithLiterals(shape.Slots); err != nil {
				return &Error{Code: wire.CodeInternal, Err: err}
			}
		}
	}
	if hit {
		res.CountViewUse()
	} else {
		var err error
		if res, err = sess.optimize(shape, root, span, epoch); err != nil {
			return err
		}
	}
	// Independent re-derivation of the isolation invariants: every leaf
	// is a snapshot pinned at exactly this reader's epoch, and every
	// substituted view is valid at it.
	if issues := planlint.VerifySnapshot(res.Rewritten, res.Substitutions, epoch); len(issues) > 0 {
		return errf(wire.CodeInternal, "snapshot invariant violated: %s", issues[0])
	}
	if cacheable && !hit {
		srv.plans.put(key, shape.Slots, epoch, gen, res)
	}
	return tail(res, epoch, queue)
}

// optimize binds and plans a read at epoch: a parsed text (shape) or a
// root bound earlier.
func (sess *Session) optimize(shape *parser.Shape, root *algebra.Node, span seq.Span, epoch int64) (*core.Result, error) {
	srv := sess.srv
	var err error
	if shape != nil {
		if root, err = shape.Bind(srv.catalogAt(epoch), shape.Slots); err != nil {
			return nil, &Error{Code: wire.CodeParse, Err: err}
		}
	} else if root, err = srv.rebindAt(epoch, root); err != nil {
		return nil, err
	}
	opts := srv.calibrated(sess.opts)
	if sess.useViews {
		opts.Views = srv.views.At(epoch)
	}
	res, err := core.Optimize(root, span, opts)
	if err != nil {
		return nil, &Error{Code: wire.CodePlan, Err: err}
	}
	return res, nil
}

// Plan runs fn on the plan of a root bound earlier (Catalog), under one
// pinned epoch: the root's leaves are rebound to the epoch's snapshots,
// planned, and verified. fn runs holding the epoch pin and a worker
// slot, so it must not start another read on the same server.
func (sess *Session) Plan(root *algebra.Node, span seq.Span, fn func(*core.Result) error) error {
	return sess.read("", root, span, func(res *core.Result, _ int64, _ time.Duration) error { return fn(res) })
}

// run executes a read's plan through runFn (RunMetered, or RunAnalyze
// for the view counters too) and counts the query. A partition worker's
// panic is an internal error, as a panic on the connection is.
func (s *Server) run(runFn func() (*core.Analysis, error)) (*core.Analysis, error) {
	a, err := runFn()
	if err != nil {
		code := wire.CodeExec
		if wp := (*parallel.WorkerPanic)(nil); errors.As(err, &wp) {
			code = wire.CodeInternal
		}
		return nil, &Error{Code: code, Err: err}
	}
	s.nQueries.Add(1)
	return a, nil
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
	var qr *QueryResult
	err := sess.read(seql, nil, span, func(res *core.Result, epoch int64, queue time.Duration) error {
		a, err := sess.srv.run(res.RunMetered)
		if err == nil {
			qr = &QueryResult{Fields: a.Output.Info().Schema.Fields(), Entries: a.Output.Entries(),
				Epoch: epoch, Elapsed: a.Elapsed, Queue: queue}
		}
		return err
	})
	return qr, err
}

// Explain returns the rendered plan for the span without executing.
func (sess *Session) Explain(seql string, span seq.Span) (string, int64, error) {
	var text string
	var epoch int64
	err := sess.read(seql, nil, span, func(res *core.Result, e int64, _ time.Duration) error {
		text, epoch = res.ExplainText(fmt.Sprintf("plan @epoch %d", e)), e
		return nil
	})
	return text, epoch, err
}

// Analyze executes with per-operator instrumentation, feeds the server's
// cost-model calibration (which retires cached plans), and appends the
// server counter block (see docs/OPERATIONS.md, "Server counters").
func (sess *Session) Analyze(seql string, span seq.Span) (string, int64, error) {
	var text string
	var epoch int64
	err := sess.read(seql, nil, span, func(res *core.Result, e int64, queue time.Duration) error {
		a, err := sess.srv.run(res.RunAnalyze)
		if err == nil {
			sess.srv.calib.observe(a.Root)
			sess.srv.planGen.Add(1)
			text, epoch = a.Render()+"\n"+sess.srv.counterBlock(e, queue), e
		}
		return err
	})
	return text, epoch, err
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
  conflicts      %d
  plan-cache     %d hits (%d rebound), %d misses, %d entries`,
		s.epochs.Current(), epoch, s.epochs.MinLive(), s.epochs.LiveReaders(),
		s.PageVersions(), s.views.Len(), s.nSessions.Load(), cap(s.sem),
		queue.Round(time.Microsecond), s.nQueries.Load(), s.nAppends.Load(),
		s.nConflict.Load(), s.plans.hits.Load(), s.plans.rebound.Load(), s.plans.misses.Load(), s.plans.len())
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
	var epoch int64
	var queue time.Duration
	err := sess.read(seql, nil, span, func(res *core.Result, at int64, q time.Duration) error {
		queue = q
		out, err := res.Run()
		if err != nil {
			return &Error{Code: wire.CodeExec, Err: err}
		}
		// Registration is a write: serialize with appenders and check that
		// the snapshot the view was computed from is still current for
		// every base it reads.
		srv.wmu.Lock()
		defer srv.wmu.Unlock()
		var bases []string
		for _, b := range res.Rewritten.Bases() {
			if !slices.Contains(bases, b.Name) {
				bases = append(bases, b.Name)
			}
		}
		for _, base := range bases {
			ss, e := srv.lookup(base)
			if e != nil {
				return e
			}
			if ss.v.LatestEpoch() > at {
				srv.nConflict.Add(1)
				return errf(wire.CodeConflict,
					"base %q advanced to epoch %d while materializing against epoch %d; retry",
					base, ss.v.LatestEpoch(), at)
			}
		}
		if _, err := srv.views.RegisterAt(name, res.Rewritten, out, res.RunSpan, at); err != nil {
			return &Error{Code: wire.CodeMaterialize, Err: err}
		}
		// A failed persist drops the view again; either way the registry
		// changed.
		err = srv.persistView(name, seql, res.RunSpan, at, bases, out)
		srv.planGen.Add(1)
		if err != nil {
			return &Error{Code: wire.CodeMaterialize, Err: err}
		}
		epoch = at
		return nil
	})
	if se, ok := err.(*Error); ok && se.Code == wire.CodePlan {
		err = &Error{Code: wire.CodeMaterialize, Err: se.Err}
	}
	return epoch, queue, err
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
