// EXPLAIN ANALYZE instrumentation: a metering layer that wraps every
// node of a physical plan with per-operator execution counters — rows,
// Null probe answers, stream vs probed call counts, cache activity,
// page accesses attributed to the node, and wall-clock time — next to
// the optimizer's predicted cost for the node. Every run goes through
// it: Instrument deep-copies the operator tree (ClonePlan with a metering
// wrapper around each copy), so the original plan is never mutated and
// each run owns its counters.
//
// See OBSERVABILITY.md for the meaning of every counter and how to read
// the rendered output.
package exec

import (
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/seq"
	"repro/internal/storage"
)

// PredictedCost is the optimizer's estimate for one plan node, carried
// into the physical plan so EXPLAIN ANALYZE can print predicted vs
// actual side by side. Stream is the cumulative cost (in
// sequential-page units) of one full stream pass over the node's access
// span, including its inputs; ProbePer is the expected cost of one
// probed access. Known distinguishes "estimated as zero" from "the
// optimizer produced no estimate for this node" (e.g. rename wrappers).
type PredictedCost struct {
	Stream   float64
	ProbePer float64
	Known    bool
}

// NodeMetrics is the execution record of one plan node. Counters are
// inclusive of the node's own work but exclusive of its children's
// (children have their own NodeMetrics); wall-clock times are inclusive
// of children, like the per-node times of other engines' EXPLAIN
// ANALYZE, because a pull pipeline spends child time inside the
// parent's Next.
type NodeMetrics struct {
	// Label is the operator's Label(). Building one is a fmt.Sprintf
	// per node, so a run leaves it empty until Labels fills the tree,
	// as an analyzed run (core.Result.RunAnalyze) does for rendering.
	Label string
	// op is the operator the node meters (the original, not the copy).
	op Plan
	// Predicted is the optimizer's estimate for this node.
	Predicted PredictedCost
	// Children mirror the plan tree.
	Children []*NodeMetrics

	// ScanCalls counts cursors opened on the node (stream accesses);
	// ScanRows the records those cursors emitted.
	ScanCalls int64
	ScanRows  int64
	// ProbeCalls counts probed accesses; ProbeRows the non-Null
	// answers, ProbeNulls the Null records produced.
	ProbeCalls int64
	ProbeRows  int64
	ProbeNulls int64
	// ScanTime/ProbeTime are inclusive wall-clock times spent inside
	// the node's Scan cursors and Probe calls.
	ScanTime  time.Duration
	ProbeTime time.Duration

	// Batch-mode tallies. BatchCalls counts batch scans opened on the
	// node (each also counts in ScanCalls), Batches the batches it
	// emitted, BatchRows the valid rows those batches carried (also in
	// ScanRows, so rows stay comparable across modes). All zero when
	// the node ran record by record.
	BatchCalls int64
	Batches    int64
	BatchRows  int64

	// Pages holds the base-store accesses attributed to this node.
	// Only leaves over storage.Store sequences set HasPages: such a leaf
	// reads a fork of its store counting into the node alone, so the
	// leaf-attributed counters sum exactly to the global storage.Stats
	// movement of the run, also under concurrent runs.
	Pages    storage.StatsSnapshot
	HasPages bool

	// Cache counters, copied from the node's operator caches after the
	// run (HasCache reports the node owns at least one). CacheHits and
	// CacheMisses stay zero: operators read their caches in order, and
	// none does keyed lookups. They are kept for counter readers that
	// report a hit share.
	HasCache       bool
	CacheCap       int
	CachePeak      int
	CacheHits      int64
	CacheMisses    int64
	CachePuts      int64
	CacheEvictions int64

	// pageStats is the private block a leaf's store fork counts into;
	// shared is the store's block it folds back into on Finalize (nil
	// for every other node).
	pageStats storage.Stats
	shared    *storage.Stats
	caches    []*cache.FIFO
}

// Finalize copies the deferred counters (page attribution, cache
// activity) into the exported fields and credits each leaf's page
// accesses to its store's shared counters, recursively. Call it after
// the instrumented plan has been drained (or has failed): until then
// the shared counters do not see the run. It detaches the node from its
// live sources, so the exported fields are the node's counters from then
// on (also after Merge) and a second call adds nothing.
func (m *NodeMetrics) Finalize() {
	if m.shared != nil {
		m.Pages = m.pageStats.Snapshot()
		m.shared.AddSnapshot(m.Pages)
		m.shared = nil
	}
	for _, c := range m.caches {
		m.CacheCap += c.Cap()
		m.CachePeak += c.Peak()
		m.CachePuts += c.Puts()
		m.CacheEvictions += c.Evictions()
	}
	m.caches = nil
	for _, c := range m.Children {
		c.Finalize()
	}
}

// Merge folds another metrics tree into this one, summing every counter
// recursively. Both trees must meter the same plan, node for node — as
// produced by instrumenting one plan once per worker, the shards of a
// partitioned run. Call
// Finalize on both trees before merging, so the deferred page and cache
// counters are in the exported fields. Capacities and peaks sum too:
// K workers each own a full set of operator caches, so the merged
// numbers report the actual total residency of the parallel run.
func (m *NodeMetrics) Merge(o *NodeMetrics) error {
	if m.op != o.op {
		return fmt.Errorf("exec: merging metrics of different operators: %q vs %q", m.op.Label(), o.op.Label())
	}
	if len(m.Children) != len(o.Children) {
		return fmt.Errorf("exec: merging metrics with different shapes at %q: %d vs %d children",
			m.op.Label(), len(m.Children), len(o.Children))
	}
	m.ScanCalls += o.ScanCalls
	m.ScanRows += o.ScanRows
	m.ProbeCalls += o.ProbeCalls
	m.ProbeRows += o.ProbeRows
	m.ProbeNulls += o.ProbeNulls
	m.ScanTime += o.ScanTime
	m.ProbeTime += o.ProbeTime
	m.BatchCalls += o.BatchCalls
	m.Batches += o.Batches
	m.BatchRows += o.BatchRows
	m.Pages = m.Pages.Add(o.Pages)
	m.HasPages = m.HasPages || o.HasPages
	m.HasCache = m.HasCache || o.HasCache
	m.CacheCap += o.CacheCap
	m.CachePeak += o.CachePeak
	m.CachePuts += o.CachePuts
	m.CacheEvictions += o.CacheEvictions
	for i, c := range m.Children {
		if err := c.Merge(o.Children[i]); err != nil {
			return err
		}
	}
	return nil
}

// CostWeights weight the §4 cost model's primitive operations, in the
// unit of one sequential page read. The planner prices candidates with
// them (core.Options.Params), the partition planner its parallelism
// term, and OwnCost prices observed counters in the same unit; a
// calibration fit (reopt.Constants.Weights) is one too.
type CostWeights struct {
	SeqPage     float64 // one page read during a sequential scan
	RandPage    float64 // one page read during a probe
	Pred        float64 // one predicate application (the paper's K)
	CacheAccess float64 // one operator-cache put or get
	PerRecord   float64 // per-record CPU (copy, compose, aggregate step)
	// ParallelStartup is the fixed per-worker overhead of a partitioned
	// run (plan cloning, goroutine launch, result merging), the startup
	// term of the parallelism extension.
	ParallelStartup float64
}

// DefaultCostWeights returns the standard constants: the classical
// random-vs-sequential I/O gap plus small CPU terms, and a per-worker
// startup conservative enough that small interactive spans never pay
// cloning and merging for a few pages of work.
func DefaultCostWeights() CostWeights {
	return CostWeights{
		SeqPage:     1.0,
		RandPage:    4.0,
		Pred:        0.01,
		CacheAccess: 0.002,
		PerRecord:   0.005,

		ParallelStartup: 12.0,
	}
}

// PageCost prices page accesses at the sequential and random weights:
// the actual-side number directly comparable to a predicted stream
// cost's I/O component.
func (w CostWeights) PageCost(s storage.StatsSnapshot) float64 {
	return float64(s.SeqPages)*w.SeqPage + float64(s.RandPages)*w.RandPage
}

// OwnCost prices the node's own work (not its children's) in cost
// units: page accesses at the sequential/random weights, cache
// operations, and records moved. It reads the deferred counters live,
// so it is valid both mid-run (at a reoptimization checkpoint) and
// after Finalize, and it never mutates the tree.
func (m *NodeMetrics) OwnCost(w CostWeights) float64 {
	pages, cacheOps := m.Pages, m.CachePuts
	if m.shared != nil {
		pages = m.pageStats.Snapshot()
	}
	for _, c := range m.caches {
		cacheOps += c.Puts()
	}
	return w.PageCost(pages) + float64(cacheOps)*w.CacheAccess + float64(m.ScanRows+m.ProbeRows)*w.PerRecord
}

// ActualCost prices the subtree's accumulated work: OwnCost summed over
// the subtree. The result is directly comparable to a cumulative
// predicted stream cost pro-rated to the consumed span.
func (m *NodeMetrics) ActualCost(w CostWeights) float64 {
	total := m.OwnCost(w)
	for _, c := range m.Children {
		total += c.ActualCost(w)
	}
	return total
}

// ExclusiveTime returns the wall-clock time spent in this node alone:
// its inclusive time minus its direct children's inclusive times,
// clamped at zero (timer granularity can make the difference slightly
// negative). Calibration regresses cost constants against it.
func (m *NodeMetrics) ExclusiveTime() time.Duration {
	t := m.ScanTime + m.ProbeTime
	for _, c := range m.Children {
		t -= c.ScanTime + c.ProbeTime
	}
	if t < 0 {
		t = 0
	}
	return t
}

// TotalPages sums the attributed page accesses over the subtree.
func (m *NodeMetrics) TotalPages() storage.StatsSnapshot {
	total := m.Pages
	for _, c := range m.Children {
		total = total.Add(c.TotalPages())
	}
	return total
}

// Rows returns the records the node delivered to its consumer: stream
// emissions plus non-Null probe answers.
func (m *NodeMetrics) Rows() int64 { return m.ScanRows + m.ProbeRows }

// RowsIn returns the records the node pulled from its children.
func (m *NodeMetrics) RowsIn() int64 {
	var total int64
	for _, c := range m.Children {
		total += c.Rows()
	}
	return total
}

// Labels fills Label across the tree from the metered operators.
func (m *NodeMetrics) Labels() {
	m.Walk(func(n *NodeMetrics, _ int) {
		if n.Label == "" && n.op != nil {
			n.Label = n.op.Label()
		}
	})
}

// Walk visits the metrics tree depth-first, parent before children.
func (m *NodeMetrics) Walk(f func(n *NodeMetrics, depth int)) {
	var walk func(n *NodeMetrics, depth int)
	walk = func(n *NodeMetrics, depth int) {
		f(n, depth)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(m, 0)
}

// Instrument deep-copies the plan with a metering wrapper around every
// node and returns the wrapped plan together with the metrics tree that
// mirrors it. pred supplies the optimizer's estimate for each original
// node (nil means no estimates). Leaves over storage.Store sequences
// read a fork of the store counting into the leaf's node (see
// NodeMetrics.Finalize). Operators owning caches get fresh caches so
// their counters describe this run only; the original plan is left
// untouched. It fails where ClonePlan does.
func Instrument(p Plan, pred func(Plan) PredictedCost) (Plan, *NodeMetrics, error) {
	if pred == nil {
		pred = func(Plan) PredictedCost { return PredictedCost{} }
	}
	cp, err := clonePlan(p, func(orig, cp Plan) Plan {
		m := &NodeMetrics{op: orig, Predicted: pred(orig)}
		kids := cp.Children()
		m.Children = make([]*NodeMetrics, len(kids))
		for i, c := range kids {
			m.Children[i] = c.(*Metered).M
		}
		if l, ok := cp.(*Leaf); ok {
			if st, ok := l.Seq.(storage.Store); ok {
				m.shared, m.HasPages = st.Stats(), true
				l.Seq = st.Fork(&m.pageStats)
			}
		}
		if cs := cp.Caches(); len(cs) > 0 {
			m.HasCache = true
			m.caches = cs
		}
		return &Metered{Inner: cp, M: m}
	})
	if err != nil {
		return nil, nil, err
	}
	return cp, cp.(*Metered).M, nil
}

// clockBase anchors clock.
var clockBase = time.Now()

// clock returns monotonic time as an offset from clockBase. Every run is
// metered, and a record-at-a-time node is timed at each row: clock reads
// the monotonic clock once, where time.Now reads the wall clock too.
func clock() time.Duration { return time.Since(clockBase) }

// Metered is the per-node metering wrapper Instrument installs. It is a
// transparent Plan: Label, Children, Caches and Info all delegate to
// the wrapped operator (whose own child links point at the metered
// children).
type Metered struct {
	Inner Plan
	M     *NodeMetrics
}

// Info implements seq.Sequence.
func (w *Metered) Info() seq.Info { return w.Inner.Info() }

// Probe implements seq.Sequence, counting the call, its Null-ness and
// its inclusive wall time.
func (w *Metered) Probe(pos seq.Pos) (seq.Record, error) {
	start := clock()
	r, err := w.Inner.Probe(pos)
	w.M.ProbeTime += clock() - start
	w.M.ProbeCalls++
	if r.IsNull() {
		w.M.ProbeNulls++
	} else {
		w.M.ProbeRows++
	}
	return r, err
}

// Scan implements seq.Sequence.
func (w *Metered) Scan(span seq.Span) seq.Cursor {
	w.M.ScanCalls++
	start := clock()
	cur := w.Inner.Scan(span)
	w.M.ScanTime += clock() - start
	return &meteredPlanCursor{in: cur, m: w.M}
}

// Label implements Plan.
func (w *Metered) Label() string { return w.Inner.Label() }

// Children implements Plan.
func (w *Metered) Children() []Plan { return w.Inner.Children() }

// Caches implements Plan.
func (w *Metered) Caches() []*cache.FIFO { return w.Inner.Caches() }

type meteredPlanCursor struct {
	in seq.Cursor
	m  *NodeMetrics
}

func (c *meteredPlanCursor) Next() (seq.Pos, seq.Record, bool) {
	start := clock()
	p, r, ok := c.in.Next()
	c.m.ScanTime += clock() - start
	if ok {
		c.m.ScanRows++
	}
	return p, r, ok
}

func (c *meteredPlanCursor) Err() error   { return c.in.Err() }
func (c *meteredPlanCursor) Close() error { return c.in.Close() }

// PlanStores collects the distinct base-sequence stores reachable from
// the plan's leaves (distinct by shared Stats block), for global
// counter deltas around a measured run.
func PlanStores(p Plan) []storage.Store {
	seen := make(map[*storage.Stats]bool)
	var out []storage.Store
	var walk func(n Plan)
	walk = func(n Plan) {
		if w, ok := n.(*Metered); ok {
			walk(w.Inner)
			return
		}
		if l, ok := n.(*Leaf); ok {
			if st, ok := l.Seq.(storage.Store); ok && !seen[st.Stats()] {
				seen[st.Stats()] = true
				out = append(out, st)
			}
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(p)
	return out
}
