// Package matview is the materialized-view registry: derived sequences
// that have been computed and stored register their *canonical* query
// block (internal/canon), their span, and their storage, and the
// optimizer asks the registry whether a block it is about to plan can be
// answered from a view instead (§3.4–3.5: a materialized derived
// sequence is just another cached access path).
//
// Matching is by canonical key with subsumption: a view answers a block
// exactly when their keys are equal, and answers a selection block with
// a residual filter when the view is the same block with a subset of the
// conjuncts (the view sel{P_v}(X) serves the query sel{P_q}(X) whenever
// P_v ⊆ P_q; the residual is P_q \ P_v applied on top of the view scan).
// In both cases the view's span must cover the span the query needs at
// that block (top-down span propagation, §3.2) — a structural match
// whose span falls short is recorded as a miss.
//
// Views are backed by the same metered stores (internal/storage) as base
// sequences, so the cost model, EXPLAIN ANALYZE page counters, parallel
// partitioning, and stats forking treat a view scan exactly like a base
// scan.
package matview

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/algebra"
	"repro/internal/canon"
	"repro/internal/expr"
	"repro/internal/seq"
	"repro/internal/storage"
)

// View is one registered materialization.
type View struct {
	// Name is the registry-unique view name.
	Name string
	// Node is the logical block the view materializes, as registered
	// (post-rewrite). Its output columns are the stored columns, in order.
	Node *algebra.Node
	// Canon is the canonical form of Node. Canon.ColMap maps stored
	// column j to canonical column Canon.ColMap[j].
	Canon *canon.Canon
	// Span is the position range over which the stored data equals the
	// block's output. Always bounded.
	Span seq.Span
	// Store holds the materialized entries, metered like a base store.
	Store storage.Store
	// FromEpoch is the MVCC epoch the view's contents correspond to: a
	// reader pinned at an earlier epoch must not use it.
	FromEpoch int64

	// invalidFrom is the epoch a base write invalidated this view at
	// (readers pinned at >= invalidFrom must not use it); 0 while the
	// view is live.
	invalidFrom atomic.Int64

	hits   atomic.Int64
	misses atomic.Int64
}

// ValidAt reports whether a reader pinned at epoch e may use this view:
// the view existed by e and no base write had invalidated it yet.
func (v *View) ValidAt(e int64) bool {
	if e < v.FromEpoch {
		return false
	}
	inv := v.invalidFrom.Load()
	return inv == 0 || e < inv
}

// InvalidFrom returns the epoch the view was invalidated at (0 = live).
func (v *View) InvalidFrom() int64 { return v.invalidFrom.Load() }

// Hit records that the optimizer substituted this view into a plan.
func (v *View) Hit() { v.hits.Add(1) }

// Miss records that this view matched structurally but was not used —
// its span fell short, or recomputation was costed cheaper.
func (v *View) Miss() { v.misses.Add(1) }

// Hits returns the substitution count.
func (v *View) Hits() int64 { return v.hits.Load() }

// Misses returns the matched-but-unused count.
func (v *View) Misses() int64 { return v.misses.Load() }

// Density returns the stored fraction of valid positions.
func (v *View) Density() float64 { return v.Store.Info().Density }

// Schema returns the stored schema (the registered block's output schema).
func (v *View) Schema() *seq.Schema { return v.Node.Schema }

// Counters is a point-in-time snapshot of one view's observability
// counters, rendered in EXPLAIN ANALYZE and `show views`.
type Counters struct {
	Name    string
	Span    seq.Span
	Records int
	Density float64
	Hits    int64
	Misses  int64
	Pages   storage.StatsSnapshot
	// FromEpoch/InvalidFrom delimit the MVCC validity window of the view
	// ([FromEpoch, InvalidFrom); InvalidFrom 0 = still live).
	FromEpoch   int64
	InvalidFrom int64
}

// Counters snapshots the view's counters.
func (v *View) Counters() Counters {
	info := v.Store.Info()
	records := 0
	if info.Span.Bounded() {
		records = int(float64(info.Span.Len())*info.Density + 0.5)
	}
	return Counters{
		Name:        v.Name,
		Span:        v.Span,
		Records:     records,
		Density:     info.Density,
		Hits:        v.Hits(),
		Misses:      v.Misses(),
		Pages:       v.Store.Stats().Snapshot(),
		FromEpoch:   v.FromEpoch,
		InvalidFrom: v.InvalidFrom(),
	}
}

// Match is a successful subsumption test: the block can be computed as
// scan(view) + residual select + column permutation.
type Match struct {
	View *View
	// Residual holds the query conjuncts the view does not already
	// apply, remapped into the view's stored column space. Empty for an
	// exact match.
	Residual []expr.Expr
	// ColMap maps block output columns to stored columns: block column i
	// is stored column ColMap[i]. Always a permutation.
	ColMap []int
	// Covered is the portion of the requested span the view's valid span
	// actually holds. Equal to the request for a full match; a proper
	// prefix of it for a partial match, where the caller must recompute
	// the remainder [Covered.End+1, need.End] itself.
	Covered seq.Span
}

// Partial reports whether the match covers only a prefix of need.
func (m *Match) Partial(need seq.Span) bool {
	return !need.IsEmpty() && m.Covered != need
}

// Substitution records one optimizer decision to answer a query block
// from a view. The optimizer keeps these on its Result so EXPLAIN can
// show the choice and planlint can re-verify it (matview/* invariants).
type Substitution struct {
	View *View
	// Block is the replaced block: the node of the rewritten query tree
	// whose plan the view scan substitutes for.
	Block *algebra.Node
	// Need is the access span the substituted plan must produce, per
	// top-down span propagation.
	Need seq.Span
	// Covered is the prefix of Need the view scan serves. Equal to Need
	// for a full substitution; shorter for a partial one, where the plan
	// concatenates the view scan with a recomputation of the uncovered
	// tail (Covered.End+1 .. Need.End).
	Covered seq.Span
	// Residual holds the conjuncts applied on top of the view scan, in
	// the view's stored column space. Empty for an exact match.
	Residual []expr.Expr
	// ColMap maps block output columns to stored columns: block column i
	// is stored column ColMap[i].
	ColMap []int
	// Stream and Probed report which access modes adopted the view path
	// (each mode is costed separately against recomputation).
	Stream, Probed bool
	// ViewCost and RecomputeCost are the stream-cost comparison the
	// decision used.
	ViewCost, RecomputeCost float64
}

// Registry holds the registered views. Safe for concurrent use.
//
// mu is a leaf in the declared lock order: critical sections are map
// and slice bookkeeping; invalidation scans copy the view list under
// RLock and CAS the epoch bounds outside it.
//
//seqvet:lockorder leaf matview.Registry.mu
type Registry struct {
	mu     sync.RWMutex
	byName map[string]*View
	order  []*View
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{byName: make(map[string]*View)}
}

// RegisterAt materializes data as a view over the block node, valid on
// span for readers pinned at >= epoch, the MVCC epoch its contents
// correspond to. The node should be in post-rewrite form (what the
// optimizer sees when it plans future queries); data's columns must
// match node's output schema positionally, and span must be bounded and
// cover data's entries. NewStore chooses the storage representation.
func (r *Registry) RegisterAt(name string, node *algebra.Node, data *seq.Materialized, span seq.Span, epoch int64) (*View, error) {
	if name == "" {
		return nil, fmt.Errorf("matview: empty view name")
	}
	if node == nil {
		return nil, fmt.Errorf("matview: nil block")
	}
	if node.Kind == algebra.KindBase {
		return nil, fmt.Errorf("matview: %q is a bare base sequence, not a derived block", name)
	}
	if !span.Bounded() {
		return nil, fmt.Errorf("matview: view %q span %v is unbounded", name, span)
	}
	if algebra.UniverseSensitive(node) {
		// The stored records would encode the evaluation universe of the
		// materializing run; substituting them into a query planned under
		// a different universe is unsound (the fuzz seed-81 defect).
		return nil, fmt.Errorf("matview: view %q block is universe-sensitive (value offset or unbounded aggregate over an input with infinite support) and cannot be materialized soundly", name)
	}
	if got, want := data.Info().Schema, node.Schema; !compatibleSchemas(got, want) {
		return nil, fmt.Errorf("matview: view %q data schema %v does not match block schema %v", name, got, want)
	}
	c, err := canon.Canonicalize(node)
	if err != nil {
		return nil, fmt.Errorf("matview: canonicalize view %q: %w", name, err)
	}
	store, err := NewStore(data, span)
	if err != nil {
		return nil, fmt.Errorf("matview: store view %q: %w", name, err)
	}
	v := &View{Name: name, Node: node, Canon: c, Span: span, Store: store, FromEpoch: epoch}

	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		return nil, fmt.Errorf("matview: view %q already registered", name)
	}
	r.byName[name] = v
	r.order = append(r.order, v)
	return v, nil
}

// NewStore packs view data valid on span into a store, choosing the
// representation by density: dense at ≥ half the positions occupied,
// sparse below.
func NewStore(data *seq.Materialized, span seq.Span) (storage.Store, error) {
	spanned, err := data.WithSpan(span)
	if err != nil {
		return nil, err
	}
	kind := storage.KindSparse
	if spanned.Info().Density >= 0.5 {
		kind = storage.KindDense
	}
	return storage.FromMaterialized(spanned, kind, 0)
}

// compatibleSchemas requires positionally equal field types; names are
// cosmetic (the canon renders columns positionally).
func compatibleSchemas(a, b *seq.Schema) bool {
	if a.NumFields() != b.NumFields() {
		return false
	}
	for i := 0; i < a.NumFields(); i++ {
		if a.Field(i).Type != b.Field(i).Type {
			return false
		}
	}
	return true
}

// Match finds the best view answering the block with canonical form c
// over the span need. Candidates match exactly (equal keys) or by
// conjunct subsumption; among structural matches whose span covers need,
// the one with the fewest residual conjuncts wins (ties: registration
// order). When no view covers all of need, a view whose span covers a
// proper prefix of it can still match partially (Covered < need): the
// caller serves the prefix from the view and recomputes the rest.
// Structural matches that cover nothing record a Miss. Match itself
// never records Hits: the optimizer costs the substitution against
// recomputation and reports the outcome via View.Hit/Miss.
func (r *Registry) Match(c *canon.Canon, need seq.Span) (*Match, bool) {
	r.mu.RLock()
	views := append([]*View(nil), r.order...)
	r.mu.RUnlock()

	var best, partial *Match
	for _, v := range views {
		m, ok := subsume(v, c)
		if !ok {
			continue
		}
		if need.IsEmpty() || v.Span.Intersect(need) == need {
			m.Covered = need
			if best == nil || len(m.Residual) < len(best.Residual) {
				best = m
			}
			continue
		}
		// Prefix cover: the view holds [need.Start, v.Span.End] with a
		// recomputable gap above. Prefer the longest covered prefix, then
		// the fewest residual conjuncts.
		if need.Bounded() && v.Span.Start <= need.Start && v.Span.End >= need.Start {
			m.Covered = seq.NewSpan(need.Start, v.Span.End)
			if partial == nil || m.Covered.End > partial.Covered.End ||
				(m.Covered.End == partial.Covered.End && len(m.Residual) < len(partial.Residual)) {
				partial = m
			}
			continue
		}
		v.Miss()
	}
	if best != nil {
		return best, true
	}
	return partial, partial != nil
}

// subsume tests whether view v structurally answers the canonical block
// c, ignoring spans. On success the returned match carries the residual
// conjuncts and column map, both in v's stored column space.
func subsume(v *View, c *canon.Canon) (*Match, bool) {
	// invStored[canonical column] = stored column.
	invStored := make([]int, len(v.Canon.ColMap))
	for stored, canonCol := range v.Canon.ColMap {
		invStored[canonCol] = stored
	}

	if v.Canon.Key == c.Key {
		return &Match{View: v, ColMap: composeThrough(c.ColMap, invStored)}, true
	}

	// Conjunct subsumption: both blocks must be selections over the same
	// canonical input (a view with no selection is a selection with zero
	// conjuncts), and the view's conjuncts must be a subset of the
	// query's. Selection preserves columns, so the select's output space
	// is its input space and invStored applies unchanged.
	if c.Node.Kind != algebra.KindSelect {
		return nil, false
	}
	if v.Canon.SelectInputKey != c.SelectInputKey {
		return nil, false
	}
	qConjs := canon.Conjuncts(c.Node.Pred)
	vConjs := []expr.Expr(nil)
	if v.Canon.Node.Kind == algebra.KindSelect {
		vConjs = canon.Conjuncts(v.Canon.Node.Pred)
	}
	have := make(map[string]bool, len(vConjs))
	for _, e := range vConjs {
		have[canon.ExprKey(e)] = true
	}
	matched := 0
	var residual []expr.Expr
	for _, e := range qConjs {
		if have[canon.ExprKey(e)] {
			matched++
			continue
		}
		remapped, err := remapToStored(e, invStored)
		if err != nil {
			return nil, false
		}
		residual = append(residual, remapped)
	}
	if matched != len(vConjs) {
		// The view filters by a conjunct the query does not: it may have
		// dropped records the query needs.
		return nil, false
	}
	return &Match{View: v, Residual: residual, ColMap: composeThrough(c.ColMap, invStored)}, true
}

// composeThrough returns out[i] = through[m[i]].
func composeThrough(m, through []int) []int {
	out := make([]int, len(m))
	for i, j := range m {
		out[i] = through[j]
	}
	return out
}

func remapToStored(e expr.Expr, invStored []int) (expr.Expr, error) {
	m := make(map[int]int, len(invStored))
	for canonCol, stored := range invStored {
		m[canonCol] = stored
	}
	return expr.Remap(e, m)
}

// Get returns the view by name.
func (r *Registry) Get(name string) (*View, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	v, ok := r.byName[name]
	return v, ok
}

// Views returns the registered views sorted by name.
func (r *Registry) Views() []*View {
	r.mu.RLock()
	out := append([]*View(nil), r.order...)
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of registered views.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.order)
}

// Drop removes the named view. It reports whether the view existed.
func (r *Registry) Drop(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[name]; !ok {
		return false
	}
	delete(r.byName, name)
	// Remove every generation of the name (SwapGeneration retains old
	// generations in order for pinned readers).
	kept := r.order[:0]
	for _, v := range r.order {
		if v.Name != name {
			kept = append(kept, v)
		}
	}
	r.order = kept
	return true
}

// At returns a read-only registry slice containing exactly the views a
// reader pinned at epoch e may use. The slice shares View pointers with
// the parent (counters accumulate in one place) but has its own
// membership, so concurrent registration and invalidation in the parent
// never change what a pinned reader can match. Register/Drop on the
// slice affect only the slice; sessions must register through the
// parent.
func (r *Registry) At(e int64) *Registry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := &Registry{byName: make(map[string]*View)}
	for _, v := range r.order {
		if v.ValidAt(e) {
			out.byName[v.Name] = v
			out.order = append(out.order, v)
		}
	}
	return out
}

// InvalidateBaseFrom marks every view whose block reads the named base
// sequence as invalid for readers pinned at or after the given epoch,
// when that sequence's data changes (append, reorganize without
// maintenance, drop): readers pinned at earlier epochs keep using the
// view, and GC reclaims it once no such reader can exist. Returns the
// names of the views invalidated now (already-invalid views are left at
// their earlier epoch).
func (r *Registry) InvalidateBaseFrom(base string, epoch int64) []string {
	r.mu.RLock()
	views := append([]*View(nil), r.order...)
	r.mu.RUnlock()
	var marked []string
	for _, v := range views {
		if !readsBase(v.Node, base) {
			continue
		}
		if v.invalidFrom.CompareAndSwap(0, epoch) {
			marked = append(marked, v.Name)
		}
	}
	return marked
}

// GC removes every view invalidated at or before minLive: no live reader
// is pinned early enough to use it. Returns the dropped view names.
func (r *Registry) GC(minLive int64) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var dropped []string
	kept := r.order[:0]
	for _, v := range r.order {
		if inv := v.invalidFrom.Load(); inv != 0 && inv <= minLive {
			// An old generation superseded by SwapGeneration no longer owns
			// the byName entry; only clear it if this view still does.
			if r.byName[v.Name] == v {
				delete(r.byName, v.Name)
			}
			dropped = append(dropped, v.Name)
			continue
		}
		kept = append(kept, v)
	}
	r.order = kept
	return dropped
}

// ReadsBase reports whether the block reads the named base sequence.
func ReadsBase(n *algebra.Node, base string) bool { return readsBase(n, base) }

// InvalidateFrom marks this single view invalid for readers pinned at or
// after epoch; it reports whether this call did the marking (false when
// an earlier write already invalidated the view). The maintenance
// planner uses it when it decides a view is not worth stitching.
func (v *View) InvalidateFrom(epoch int64) bool {
	return v.invalidFrom.CompareAndSwap(0, epoch)
}

func readsBase(n *algebra.Node, base string) bool {
	if n.Kind == algebra.KindBase && n.Name == base {
		return true
	}
	for _, in := range n.Inputs {
		if readsBase(in, base) {
			return true
		}
	}
	return false
}
