// Package parallel implements span-partitioned parallel evaluation of
// physical plans: the multi-worker execution subsystem layered on the
// paper's operator-scope model.
//
// The legality argument comes straight from §2.3/§3: every physical
// operator's stream output at a position is a deterministic function of
// the base data within its composed effective scope around that position
// (Proposition 2.1 bounds the composition; Definition 3.3 broadens
// value offsets to an effective scope). Consequently Scan(sub-span)
// equals the restriction of Scan(full-span) to that sub-span, and a
// bounded span can be split into K contiguous partitions whose results,
// concatenated in order, are exactly the serial result. Each worker's
// operator scans internally widen into the neighboring partitions by at
// most the composed effective scope — the partition's halo — which the
// planner charges as re-read overhead when choosing K.
//
// The halo is not derived here: Analyze composes algebra's scope map
// (algebra.Node.ReadWindow) over the algebra nodes the plan's operators
// evaluate, so an operator kind gets its scope rule in one place. This
// package keeps only the physical facts: which operators cannot run
// inside a worker, the density a value offset's input plan reports, and
// the page size of the stores the leaves read.
//
// Partition workers never share mutable operator state: each gets a
// deep copy with private caches (Theorem 3.1's cache-finite state,
// times K), whose leaves read forks of the base stores counting into
// worker-private statistics, so per-worker page attribution stays exact
// under concurrency. The planner falls back to serial (K=1) for plans
// whose scopes it cannot bound usefully — unbounded aggregate windows,
// value offsets over inputs of unknown density, probed-mode compose
// legs, materialization points, partial-view splices — and whenever the
// §4 cost model with the parallelism term (startup plus halo re-reads
// versus divided per-partition work) prefers it.
package parallel

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"

	"repro/internal/algebra"
	"repro/internal/exec"
	"repro/internal/seq"
	"repro/internal/storage"
)

// minSpanPerWorker floors the partition length; spans shorter than 2×
// this never split.
const minSpanPerWorker = 512

// Scope is the partitionability verdict for a plan: whether contiguous
// span partitions are worth considering, the composed effective-scope
// hull each partition must be able to re-read around its boundaries
// (the halo), and the estimated cost of those boundary re-reads.
type Scope struct {
	// Partitionable reports that every operator's effective scope is
	// usefully bounded, so partitioned evaluation does not degenerate
	// into re-reading unbounded history per worker.
	Partitionable bool
	// Reason names the first disqualifying operator when not
	// partitionable.
	Reason string
	// Halo is the hull of the composed per-leaf effective scopes: a
	// partition evaluating [a, b] may read base positions within
	// [a+Halo.Lo, b+Halo.Hi].
	Halo algebra.Window
	// HaloCost estimates the page cost one extra partition boundary adds
	// (prefix re-reads, history-walk probes), in cost units.
	HaloCost float64
}

// Analyze walks the physical plan through Children and composes the
// partition halo from the algebra scope map: node returns the algebra
// node an operator evaluates (nil when it evaluates none of its own),
// and an operator reads its node's window (algebra.Node.ReadWindow,
// Prop. 2.1) only on an edge to a child that evaluates one of that
// node's inputs. Operators a view substitution or a join order adds
// (view scans, residual selects, column restores, inner joins) pass the
// window through unchanged. Value offsets read their Def. 3.3 window
// estimated from the child's density. Materialization points, probed
// compose legs and partial-view splices make the plan serial-only.
func Analyze(p exec.Plan, node func(exec.Plan) *algebra.Node) Scope {
	s := Scope{Partitionable: true}
	s.walk(p, node, algebra.Range(0, 0))
	return s
}

func (s *Scope) walk(p exec.Plan, node func(exec.Plan) *algebra.Node, acc algebra.Window) {
	if reason := serialOnly(p); reason != "" {
		s.disqualify(reason)
	}
	if !s.Partitionable {
		return
	}
	n, children := node(p), p.Children()
	if len(children) == 0 {
		s.Halo = s.Halo.Hull(acc)
		// Each partition boundary re-reads the halo width once,
		// sequentially.
		s.HaloCost += float64(acc.Hi-acc.Lo) / float64(recordsPerPage(n))
	}
	for _, c := range children {
		w, input := acc, -1
		if n != nil {
			input = slices.Index(n.Inputs, node(c))
		}
		switch {
		case input < 0:
			// c is part of n's implementation, not one of its inputs.
		case n.Kind == algebra.KindValueOffset:
			w = s.valueOffset(c, n.Offset, acc)
		default:
			if w = n.ReadWindow(input, acc); w.LoUnbounded || w.HiUnbounded {
				s.disqualify(fmt.Sprintf("%s reads an unbounded window %s", n.Kind, w))
			}
		}
		s.walk(c, node, w)
	}
}

// serialOnly names the physical reason operator p cannot run inside
// partition workers, or returns "" when it can.
func serialOnly(p exec.Plan) string {
	if _, ok := p.(*exec.Materialize); ok {
		return "materialization point (per-worker re-materialization)"
	}
	if c, ok := p.(*exec.ComposeOp); ok && c.Strategy != exec.ComposeLockStep {
		return "compose with a probed-mode inner leg (" + c.Strategy.String() + ")"
	}
	if _, ok := p.(*exec.Concat); ok {
		return "partial view substitution (view prefix spliced to a recomputed tail)"
	}
	return ""
}

// valueOffset sizes a value offset's effective scope (Def. 3.3) from
// the density of its input plan in: the |l|-th non-Null neighbor lies
// an expected |l|/density positions away. Evaluation stays exact
// regardless (the operator walks or re-scans as far as the data
// requires); the estimate sizes the halo and prices the per-boundary
// history walk as probes.
func (s *Scope) valueOffset(in exec.Plan, offset int64, acc algebra.Window) algebra.Window {
	density := in.Info().Density
	if density <= 0 {
		s.disqualify("value offset over input of unknown density")
		return acc
	}
	need := max(offset, -offset)
	est := int64(math.Ceil(float64(need) / density))
	win := algebra.Range(-est, 0)
	if offset > 0 {
		win = algebra.Range(0, est)
	}
	// The history walk probes ~|l|/density positions per boundary; a
	// probe costs roughly a random page at the default weight.
	s.HaloCost += float64(need) / density * exec.DefaultCostWeights().RandPage
	return acc.Add(win)
}

// recordsPerPage is the page capacity of the stored sequence a leaf of
// node n reads; view and constant scans use the default layout.
func recordsPerPage(n *algebra.Node) int64 {
	if n != nil {
		if st, ok := n.Seq.(storage.Store); ok {
			if c := st.AccessCosts(); c.RecordsPerPage > 0 {
				return int64(c.RecordsPerPage)
			}
		}
	}
	return storage.DefaultRecordsPerPage
}

func (s *Scope) disqualify(reason string) {
	if s.Partitionable {
		s.Partitionable = false
		s.Reason = reason
	}
}

// Decision is the partition planner's output for one evaluation: the
// chosen degree of parallelism (K == 1 means serial, with Reason saying
// why), the contiguous sub-spans, the halo, and the cost-model numbers
// behind the choice.
type Decision struct {
	// K is the chosen number of partitions (and workers).
	K int
	// Partitions are the contiguous ascending sub-spans; their union is
	// exactly Span. Empty when K == 1.
	Partitions []seq.Span
	// Span is the full evaluation span the decision covers.
	Span seq.Span
	// Halo is the composed effective-scope hull per partition.
	Halo algebra.Window
	// HaloCost is the estimated cost one partition boundary adds.
	HaloCost float64
	// SerialCost is the optimizer's stream-cost estimate for K=1;
	// ParallelCost the modeled cost at the chosen K.
	SerialCost   float64
	ParallelCost float64
	// MaxWorkers is the worker bound the decision was made under.
	MaxWorkers int
	// Reason explains a serial decision (unpartitionable operator, or
	// "cost model" when splitting simply does not pay).
	Reason string
	// Forced marks decisions built by ForceK, which bypass the cost
	// model (differential tests force specific partition counts).
	Forced bool
}

// Parallel reports whether the decision actually splits the span.
func (d *Decision) Parallel() bool {
	return d != nil && d.K > 1 && len(d.Partitions) > 1
}

// String renders the decision for EXPLAIN output.
func (d *Decision) String() string {
	if d == nil {
		return ""
	}
	if !d.Parallel() {
		if d.Reason != "" {
			return fmt.Sprintf("parallel: serial (%s)", d.Reason)
		}
		return "parallel: serial"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "parallel: K=%d halo=%s cost %.2f vs serial %.2f, partitions", d.K, d.Halo, d.ParallelCost, d.SerialCost)
	for _, p := range d.Partitions {
		b.WriteByte(' ')
		b.WriteString(p.String())
	}
	return b.String()
}

// Plan decides the degree of parallelism for evaluating p over span:
// it analyzes partitionability (Analyze, with node mapping operators to
// the algebra nodes they evaluate), then minimizes the §4 cost model
// extended with the parallelism term
//
//	cost(K) = serial/K + K·startup + (K-1)·halo
//
// over K in [1, maxWorkers], with the startup term w.ParallelStartup.
// maxWorkers <= 0 selects GOMAXPROCS. The returned decision always
// explains a serial outcome.
func Plan(p exec.Plan, node func(exec.Plan) *algebra.Node, span seq.Span, serialCost float64, maxWorkers int, w exec.CostWeights) *Decision {
	if maxWorkers <= 0 {
		maxWorkers = runtime.GOMAXPROCS(0)
	}
	d := &Decision{K: 1, Span: span, SerialCost: serialCost, ParallelCost: serialCost, MaxWorkers: maxWorkers}
	if !span.Bounded() {
		d.Reason = "unbounded or empty span"
		return d
	}
	sc := Analyze(p, node)
	d.Halo = sc.Halo
	if !sc.Partitionable {
		d.Reason = sc.Reason
		return d
	}
	if maxWorkers == 1 {
		d.Reason = "parallelism disabled (max workers 1)"
		return d
	}
	halo := sc.HaloCost
	d.HaloCost = halo
	kMax := maxWorkers
	if byLen := span.Len() / minSpanPerWorker; byLen < int64(kMax) {
		kMax = int(byLen)
	}
	bestK, bestCost := 1, serialCost
	for k := 2; k <= kMax; k++ {
		c := serialCost/float64(k) + float64(k)*w.ParallelStartup + float64(k-1)*halo
		if c < bestCost {
			bestK, bestCost = k, c
		}
	}
	d.K = bestK
	d.ParallelCost = bestCost
	if bestK == 1 {
		d.Reason = "cost model prefers serial"
		return d
	}
	d.Partitions = SplitSpan(span, bestK)
	d.K = len(d.Partitions)
	return d
}

// ForceK builds a decision with exactly k partitions regardless of what
// the cost model would choose, for differential testing: partitioned
// evaluation must agree with serial evaluation record for record on any
// clonable plan, including ones the planner would deem not worth (or
// not advisable) to split. Plans that cannot be cloned (unknown
// operator types with hidden state) are refused. node is Analyze's.
func ForceK(p exec.Plan, node func(exec.Plan) *algebra.Node, span seq.Span, k int) (*Decision, error) {
	if !span.Bounded() {
		return nil, fmt.Errorf("parallel: cannot partition unbounded span %s", span)
	}
	if k < 2 {
		return nil, fmt.Errorf("parallel: forced K must be at least 2, got %d", k)
	}
	if _, err := exec.ClonePlan(p); err != nil {
		return nil, fmt.Errorf("parallel: plan is not clonable: %w", err)
	}
	parts := SplitSpan(span, k)
	sc := Analyze(p, node)
	return &Decision{
		K: len(parts), Partitions: parts, Span: span, Halo: sc.Halo,
		MaxWorkers: k, Forced: true,
	}, nil
}

// SplitSpan splits a bounded span into at most k contiguous ascending
// sub-spans of near-equal length whose union is exactly the span.
func SplitSpan(span seq.Span, k int) []seq.Span {
	if !span.Bounded() || k < 1 {
		return nil
	}
	n := span.Len()
	if int64(k) > n {
		k = int(n)
	}
	parts := make([]seq.Span, 0, k)
	base := n / int64(k)
	rem := n % int64(k)
	start := span.Start
	for i := 0; i < k; i++ {
		length := base
		if int64(i) < rem {
			length++
		}
		end := start + length - 1
		parts = append(parts, seq.Span{Start: start, End: end})
		start = end + 1
	}
	return parts
}
