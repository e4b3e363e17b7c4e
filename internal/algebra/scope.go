package algebra

import (
	"fmt"

	"repro/internal/seq"
)

// ScopeProps describes the scope of an operator on one of its inputs
// (§2.3): the set of input positions the operator function reads to
// produce the output at a position, abstracted into the three properties
// the optimizer reasons with.
//
// When Relative is true, Win gives the relative window {i+Lo .. i+Hi} of
// positions read (possibly unbounded on either side). Value offsets have
// data-dependent scopes — which positions they read depends on where the
// non-Null records lie — so they are non-relative here, and the window
// recorded for them is their *effective* scope (Definition 3.3): the
// relative hull that always contains the true scope.
type ScopeProps struct {
	FixedSize  bool
	Size       int64 // meaningful when FixedSize
	Sequential bool
	Relative   bool
	Win        Window // relative (or effective) window
}

// UnitScope is the scope of selections, projections and compose inputs:
// exactly the current position.
func UnitScope() ScopeProps {
	return ScopeProps{FixedSize: true, Size: 1, Sequential: true, Relative: true, Win: Range(0, 0)}
}

// Unit reports a fixed scope of size one.
func (p ScopeProps) Unit() bool { return p.FixedSize && p.Size == 1 }

// Scope returns the operator's scope on its input-th input sequence.
func (n *Node) Scope(input int) (ScopeProps, error) {
	if input < 0 || input >= len(n.Inputs) {
		return ScopeProps{}, fmt.Errorf("algebra: %s has no input %d", n.Kind, input)
	}
	switch n.Kind {
	case KindBase, KindConst:
		// Unreachable: leaves have no inputs, so the bounds check above
		// already rejected the call.
		return ScopeProps{}, fmt.Errorf("algebra: %s is a leaf and has no input scope", n.Kind)
	case KindSelect, KindProject, KindCompose:
		return UnitScope(), nil
	case KindPosOffset:
		// Scope {i+l}: fixed size one, relative; sequential only for the
		// identity offset (§2.3: "the scope of a positional offset
		// operator is not [sequential]").
		return ScopeProps{
			FixedSize: true, Size: 1,
			Sequential: n.Offset == 0,
			Relative:   true,
			Win:        Range(n.Offset, n.Offset),
		}, nil
	case KindValueOffset:
		// Data-dependent: the |l|-th non-Null neighbor may be arbitrarily
		// far away. Variable size, not sequential, not relative. The
		// effective scope is the open-ended window on the relevant side.
		w := Window{LoUnbounded: true, Hi: -1}
		if n.Offset > 0 {
			w = Window{Lo: 1, HiUnbounded: true}
		}
		return ScopeProps{Win: w}, nil
	case KindAgg:
		w := n.Agg.Window
		size, fixed := w.Size()
		return ScopeProps{
			FixedSize:  fixed,
			Size:       size,
			Sequential: w.Sequential(),
			Relative:   true,
			Win:        w,
		}, nil
	case KindCollapse:
		// Scope at output j is {jk, ..., jk+k-1}: fixed size k, but the
		// positions are an affine (not translated) function of j — not
		// relative, not sequential in the §2.3 sense (consecutive output
		// scopes are disjoint), though trivially single-scan evaluable.
		return ScopeProps{FixedSize: true, Size: n.Factor}, nil
	case KindExpand:
		// Scope {floor(i/k)}: fixed size one, non-relative (affine).
		return ScopeProps{FixedSize: true, Size: 1}, nil
	default:
		return ScopeProps{}, fmt.Errorf("algebra: leaf %s has no scope", n.Kind)
	}
}

// ComposeScopes combines the scope of an outer operator B on its input
// with the scope of the inner operator A producing that input, yielding
// the scope of the complex operator B∘A on A's input (§2.3: Op.Scope
// is the union over k in B.Scope of A.Scope(k)). The combination
// realizes Proposition 2.1:
//
//	(a) fixed ∘ fixed   = fixed (size ≤ product; for windows, width sum)
//	(b) sequential ∘ sequential = sequential
//	(c) relative ∘ relative     = relative (windows add)
func ComposeScopes(outer, inner ScopeProps) ScopeProps {
	win := outer.Win.Add(inner.Win)
	out := ScopeProps{
		FixedSize:  outer.FixedSize && inner.FixedSize,
		Sequential: outer.Sequential && inner.Sequential,
		Relative:   outer.Relative && inner.Relative,
		Win:        win,
	}
	if out.FixedSize {
		if s, ok := win.Size(); ok {
			out.Size = s
		} else {
			out.FixedSize = false
		}
	}
	return out
}

// Add composes relative windows (Prop. 2.1(c)): the window an outer
// operator with window w reads through an inner one with window o.
// Unbounded sides saturate.
func (w Window) Add(o Window) Window {
	out := Window{
		LoUnbounded: w.LoUnbounded || o.LoUnbounded,
		HiUnbounded: w.HiUnbounded || o.HiUnbounded,
	}
	if !out.LoUnbounded {
		out.Lo = w.Lo + o.Lo
	}
	if !out.HiUnbounded {
		out.Hi = w.Hi + o.Hi
	}
	return out
}

// Hull returns the smallest window containing both w and o. Unbounded
// sides saturate.
func (w Window) Hull(o Window) Window {
	out := Window{
		LoUnbounded: w.LoUnbounded || o.LoUnbounded,
		HiUnbounded: w.HiUnbounded || o.HiUnbounded,
	}
	if !out.LoUnbounded {
		out.Lo = min(w.Lo, o.Lo)
	}
	if !out.HiUnbounded {
		out.Hi = max(w.Hi, o.Hi)
	}
	return out
}

// ReadSpan returns the positions of n's input-th input that n reads to
// produce its outputs over out: the union of the scopes of out's
// positions, with a value offset read through its Def. 3.3 effective
// window. ReachSpan is the inverse map: the outputs whose scope meets
// in, so for every kind o ∈ ReachSpan({i}) ⇔ i ∈ ReadSpan({o}). Both
// work in each node's own coordinate frame and saturate at the
// sentinels: an unbounded side of the argument or of the scope yields
// seq.MinPos/MaxPos on that side, an empty argument (or a leaf, which
// has no input) yields the empty span.
//
// These are the one copy of the §2.3 per-operator position arithmetic.
// Step 2.b narrows access spans with ReadSpan, and the partition halo
// (parallel.Analyze) composes ReadWindow, its relative form, down the
// plan; Step 2.a derives output spans and the IVM delta halo
// (matview.Affected) pushes a changed span upward with ReachSpan:
//
//	kind              ReadSpan(out)                ReachSpan(in)
//	select, project,  out                          in
//	compose
//	offset(o)         out shifted by +o            in shifted by -o
//	agg[lo,hi]        [out.Start+lo, out.End+hi]   [in.Start-hi, in.End-lo]
//	voffset(o<0)      (-inf, out.End-1]            [in.Start+1, +inf)
//	voffset(o>0)      [out.Start+1, +inf)          (-inf, in.End-1]
//	collapse(k)       [out.Start·k, out.End·k+k-1] [⌊in.Start/k⌋, ⌊in.End/k⌋]
//	expand(k)         [⌊out.Start/k⌋, ⌊out.End/k⌋] [in.Start·k, in.End·k+k-1]
//
// A value offset's true reach stops at the |o|-th non-Null neighbour on
// its reading side; callers that can see the data tighten the open side
// themselves: the IVM washout scans for it, the partition planner
// estimates it from the input's density.
func (n *Node) ReadSpan(input int, out seq.Span) seq.Span {
	p, err := n.Scope(input)
	if err != nil {
		return seq.EmptySpan
	}
	switch n.Kind {
	case KindSelect, KindProject, KindCompose, KindPosOffset, KindAgg, KindValueOffset:
		return p.Win.spread(out)
	case KindCollapse:
		return members(out, n.Factor)
	case KindExpand:
		return groups(out, n.Factor)
	case KindBase, KindConst:
		// Unreachable: Scope rejects leaves.
	}
	return seq.EmptySpan
}

// ReachSpan returns the outputs of n whose scope meets input positions
// in; see ReadSpan.
func (n *Node) ReachSpan(in seq.Span) seq.Span {
	p, err := n.Scope(0)
	if err != nil {
		return seq.EmptySpan
	}
	switch n.Kind {
	case KindSelect, KindProject, KindCompose, KindPosOffset, KindAgg, KindValueOffset:
		return p.Win.mirror().spread(in)
	case KindCollapse:
		return groups(in, n.Factor)
	case KindExpand:
		return members(in, n.Factor)
	case KindBase, KindConst:
		// Unreachable: Scope rejects leaves.
	}
	return seq.EmptySpan
}

// ReadWindow is ReadSpan's relative form: the window of n's input-th
// input that n reads around the relative output window w. The window
// [lo, hi] is read as the span around position 0, so a relative kind
// adds its own window (Prop. 2.1(c)), collapse maps it to its member
// positions and expand to its groups. Expand gets one more position of
// slack on the right, because ⌊(i+hi)/k⌋ - ⌊i/k⌋ can reach ⌊hi/k⌋+1.
// Unbounded sides stay unbounded; a leaf, having no input, reads the
// empty window Range(1, 0).
func (n *Node) ReadWindow(input int, w Window) Window {
	r := n.ReadSpan(input, w.spread(seq.NewSpan(0, 0)))
	if r.IsEmpty() {
		return Range(1, 0)
	}
	out := Window{LoUnbounded: seq.EffectivelyUnbounded(r.Start), HiUnbounded: seq.EffectivelyUnbounded(r.End)}
	if !out.LoUnbounded {
		out.Lo = r.Start
	}
	if !out.HiUnbounded {
		out.Hi = r.End
	}
	switch n.Kind {
	case KindExpand:
		if !out.HiUnbounded {
			out.Hi++
		}
	case KindBase, KindConst, KindSelect, KindProject, KindCompose, KindPosOffset, KindAgg, KindValueOffset, KindCollapse:
	}
	return out
}

// spread returns the positions within window w of some position of s,
// [s.Start+w.Lo, s.End+w.Hi], saturating at the sentinels.
func (w Window) spread(s seq.Span) seq.Span {
	if s.IsEmpty() {
		return seq.EmptySpan
	}
	r := seq.AllSpan
	if !w.LoUnbounded && !seq.EffectivelyUnbounded(s.Start) {
		r.Start = seq.ClampPos(s.Start + w.Lo)
	}
	if !w.HiUnbounded && !seq.EffectivelyUnbounded(s.End) {
		r.End = seq.ClampPos(s.End + w.Hi)
	}
	return r
}

// mirror reflects the window through the current position: i reads
// i+w exactly when i is read from i-w.
func (w Window) mirror() Window {
	return Window{Lo: -w.Hi, Hi: -w.Lo, LoUnbounded: w.HiUnbounded, HiUnbounded: w.LoUnbounded}
}

// members returns the positions of the factor-k groups s (§5.1), one
// group per coarse position: [s.Start·k, s.End·k+k-1].
func members(s seq.Span, k int64) seq.Span {
	if s.IsEmpty() {
		return seq.EmptySpan
	}
	r := seq.AllSpan
	if !seq.EffectivelyUnbounded(s.Start) {
		r.Start = GroupSpan(s.Start, k).Start
	}
	if !seq.EffectivelyUnbounded(s.End) {
		r.End = GroupSpan(s.End, k).End
	}
	return r
}

// groups returns the factor-k groups containing positions s, flooring
// negative positions: [⌊s.Start/k⌋, ⌊s.End/k⌋].
func groups(s seq.Span, k int64) seq.Span {
	if s.IsEmpty() {
		return seq.EmptySpan
	}
	r := seq.AllSpan
	if !seq.EffectivelyUnbounded(s.Start) {
		r.Start = FloorDiv(s.Start, k)
	}
	if !seq.EffectivelyUnbounded(s.End) {
		r.End = FloorDiv(s.End, k)
	}
	return r
}

// QueryScopes computes the scope of the whole query (viewed as one
// complex operator, §2.3) on each of its base/constant leaves, by
// composing scopes along every root-to-leaf path.
func QueryScopes(root *Node) map[*Node]ScopeProps {
	out := make(map[*Node]ScopeProps)
	var walk func(n *Node, acc ScopeProps)
	walk = func(n *Node, acc ScopeProps) {
		if n.IsLeaf() {
			out[n] = acc
			return
		}
		for i, in := range n.Inputs {
			s, err := n.Scope(i)
			if err != nil {
				continue
			}
			walk(in, ComposeScopes(acc, s))
		}
	}
	walk(root, UnitScope())
	return out
}

// StreamEvaluable reports whether the query admits a stream-access
// evaluation with bounded caches. Per Theorem 3.1 and Lemma 3.2, a
// sequential fixed-size (effective) scope at every operator suffices; the
// engine additionally handles two broadenings (§3.4–3.5):
//
//   - positional offsets (fixed but non-sequential scope) run by
//     broadening the effective scope to a bounded window, and
//   - value offsets run with Cache-Strategy-B using a cache of |l|+1
//     entries despite their variable scope.
//
// The only constructs that defeat single-scan evaluation here are
// unbounded *future* references (All-window aggregates and forward value
// offsets are handled with lookahead materialization, reported as
// non-streamable).
func StreamEvaluable(root *Node) bool {
	ok := true
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Kind == KindAgg && n.Agg.Window.HiUnbounded {
			ok = false
		}
		for _, in := range n.Inputs {
			walk(in)
		}
	}
	walk(root)
	return ok
}
