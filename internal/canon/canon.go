// Package canon normalizes rewritten query blocks into a canonical
// normal form and fingerprints them. Two blocks that differ only in
// irrelevant presentation — conjunct order inside a predicate, an offset
// split into a chain of shifts, a pure permutation projection, the order
// of commutative compose legs, attribute names — canonicalize to the
// same tree and the same fingerprint. The materialized-view registry
// (internal/matview) keys on these fingerprints to recognize that a new
// query's block re-derives an already-materialized sequence (§3.4–3.5:
// a materialized derived sequence is just another cached access path).
//
// Normalizations applied (all semantics-preserving):
//
//   - select chains merge; conjuncts are canonicalized, sorted by their
//     rendering and deduplicated
//   - positional-offset chains fold into a single affine shift; a zero
//     shift vanishes
//   - projection items are canonicalized and sorted; a projection that
//     is a pure column permutation (including the identity and bare
//     renames) is elided entirely
//   - directly nested composes flatten into a leg list; legs sort by
//     their canonical rendering; all join predicates hoist to the top
//     rebuilt compose (positional join is associative and commutative
//     up to the column permutation the ColMap tracks)
//   - expressions normalize: commutative operands sort, a > b flips to
//     b < a, columns render positionally so names never matter
//
// Because normalization permutes output columns, Canonicalize reports a
// ColMap: output column i of the original block is column ColMap[i] of
// the canonical block. Substituting a materialized view for a block
// composes the two ColMaps and restores the original column order with a
// residual projection.
package canon

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/seq"
)

// Canon is the canonical form of a query block.
type Canon struct {
	// Node is the canonicalized tree — a valid algebra tree semantically
	// equal to the original up to the ColMap column permutation.
	Node *algebra.Node
	// Key is the canonical rendering: two blocks are structurally equal
	// exactly when their Keys are equal (names excluded).
	Key string
	// Fingerprint is a short collision-resistant hash of Key, for
	// display and fast inequality.
	Fingerprint string
	// ColMap maps output columns: original column i holds the same
	// values as canonical column ColMap[i]. Always a permutation.
	ColMap []int
	// SelectInputKey is the canonical rendering of the block under its
	// top-level selection — the block itself when the root is not a
	// selection (a block with no selection is a selection with zero
	// conjuncts). Precomputed so conjunct-subsumption matching compares
	// keys instead of re-rendering candidate inputs per probe.
	SelectInputKey string
	// Scope is the composed scope hull of the whole block viewed as one
	// complex operator (Proposition 2.1): the widest effective scope over
	// every root-to-leaf path.
	Scope algebra.ScopeProps
}

// Canonicalize normalizes the block rooted at n. The input tree is not
// modified; untouched subtrees are shared with the output.
func Canonicalize(n *algebra.Node) (*Canon, error) {
	if n == nil {
		return nil, fmt.Errorf("canon: nil node")
	}
	cn, cm, err := canonNode(n)
	if err != nil {
		return nil, err
	}
	key := renderNode(cn)
	sum := sha256.Sum256([]byte(key))
	inputKey := key
	if cn.Kind == algebra.KindSelect {
		inputKey = renderNode(cn.Inputs[0])
	}
	return &Canon{
		Node:           cn,
		Key:            key,
		Fingerprint:    hex.EncodeToString(sum[:8]),
		ColMap:         cm,
		Scope:          scopeHull(cn),
		SelectInputKey: inputKey,
	}, nil
}

// Fingerprint is a convenience returning only the fingerprint of n.
func Fingerprint(n *algebra.Node) (string, error) {
	c, err := Canonicalize(n)
	if err != nil {
		return "", err
	}
	return c.Fingerprint, nil
}

// canonNode returns the canonical tree for n plus the column map from
// n's output columns to the canonical node's.
func canonNode(n *algebra.Node) (*algebra.Node, []int, error) {
	switch n.Kind {
	case algebra.KindBase, algebra.KindConst:
		return n, identity(n.Schema.NumFields()), nil
	case algebra.KindSelect:
		return canonSelect(n)
	case algebra.KindProject:
		return canonProject(n)
	case algebra.KindPosOffset:
		return canonPosOffset(n)
	case algebra.KindValueOffset:
		in, im, err := canonNode(n.Inputs[0])
		if err != nil {
			return nil, nil, err
		}
		out, err := algebra.ValueOffset(in, n.Offset)
		return out, im, err
	case algebra.KindAgg:
		in, im, err := canonNode(n.Inputs[0])
		if err != nil {
			return nil, nil, err
		}
		spec := *n.Agg
		if spec.Arg >= 0 {
			spec.Arg = im[spec.Arg]
		}
		out, err := algebra.Agg(in, spec)
		return out, []int{0}, err
	case algebra.KindCollapse:
		in, im, err := canonNode(n.Inputs[0])
		if err != nil {
			return nil, nil, err
		}
		spec := *n.Agg
		if spec.Arg >= 0 {
			spec.Arg = im[spec.Arg]
		}
		out, err := algebra.Collapse(in, n.Factor, spec)
		return out, []int{0}, err
	case algebra.KindExpand:
		in, im, err := canonNode(n.Inputs[0])
		if err != nil {
			return nil, nil, err
		}
		out, err := algebra.Expand(in, n.Factor)
		return out, im, err
	case algebra.KindCompose:
		return canonCompose(n)
	default:
		return nil, nil, fmt.Errorf("canon: cannot canonicalize %s", n.Kind)
	}
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// canonSelect merges select chains and sorts conjuncts.
func canonSelect(n *algebra.Node) (*algebra.Node, []int, error) {
	in, im, err := canonNode(n.Inputs[0])
	if err != nil {
		return nil, nil, err
	}
	pred, err := remapThrough(n.Pred, im)
	if err != nil {
		return nil, nil, err
	}
	conjs := splitConjuncts(pred)
	// The canonical input may itself be a select (the original had
	// select(select(...)) the rewriter didn't merge, or merging exposed
	// one); fold its conjuncts in and select over its input.
	if in.Kind == algebra.KindSelect {
		conjs = append(conjs, splitConjuncts(in.Pred)...)
		in = in.Inputs[0]
	}
	conjs, err = sortConjuncts(conjs)
	if err != nil {
		return nil, nil, err
	}
	merged, err := conjoin(conjs)
	if err != nil {
		return nil, nil, err
	}
	out, err := algebra.Select(in, merged)
	return out, im, err
}

// canonProject canonicalizes item expressions, elides pure column
// permutations, and sorts surviving items by rendering.
func canonProject(n *algebra.Node) (*algebra.Node, []int, error) {
	in, im, err := canonNode(n.Inputs[0])
	if err != nil {
		return nil, nil, err
	}
	type item struct {
		e    expr.Expr
		name string
		orig int
	}
	items := make([]item, len(n.Items))
	for i, it := range n.Items {
		e, err := remapThrough(it.Expr, im)
		if err != nil {
			return nil, nil, err
		}
		if e, err = canonExpr(e); err != nil {
			return nil, nil, err
		}
		items[i] = item{e: e, name: it.Name, orig: i}
	}
	// Elision: a projection whose items are bare column references
	// covering every input column exactly once computes nothing — it
	// permutes and renames. Fold it into the ColMap.
	exprs := make([]expr.Expr, len(items))
	for i, it := range items {
		exprs[i] = it.e
	}
	if perm, ok := bareColPermutation(exprs, in.Schema.NumFields()); ok {
		return in, perm, nil
	}
	sort.SliceStable(items, func(i, j int) bool {
		ri, rj := renderExpr(items[i].e), renderExpr(items[j].e)
		if ri != rj {
			return ri < rj
		}
		return items[i].orig < items[j].orig
	})
	cm := make([]int, len(items))
	proj := make([]algebra.ProjItem, len(items))
	for pos, it := range items {
		cm[it.orig] = pos
		proj[pos] = algebra.ProjItem{Expr: it.e, Name: it.name}
	}
	out, err := algebra.Project(in, proj)
	return out, cm, err
}

// bareColPermutation reports whether the expressions are bare column
// references forming a bijection over 0..arity-1, returning the indices.
func bareColPermutation(items []expr.Expr, arity int) ([]int, bool) {
	if len(items) != arity {
		return nil, false
	}
	seen := make([]bool, arity)
	perm := make([]int, len(items))
	for i, e := range items {
		c, ok := e.(*expr.Col)
		if !ok || c.Index < 0 || c.Index >= arity || seen[c.Index] {
			return nil, false
		}
		seen[c.Index] = true
		perm[i] = c.Index
	}
	return perm, true
}

// canonPosOffset folds offset chains into one affine shift and drops
// zero shifts: offset(offset(x, a), b) = offset(x, a+b).
func canonPosOffset(n *algebra.Node) (*algebra.Node, []int, error) {
	in, im, err := canonNode(n.Inputs[0])
	if err != nil {
		return nil, nil, err
	}
	total := n.Offset
	for in.Kind == algebra.KindPosOffset {
		total += in.Offset
		in = in.Inputs[0]
	}
	if total == 0 {
		return in, im, nil
	}
	out, err := algebra.PosOffset(in, total)
	return out, im, err
}

// canonCompose flattens directly nested composes into a leg list, sorts
// the legs by canonical rendering, hoists every join predicate to the
// rebuilt top compose, and tracks the induced column permutation.
// Positional join is associative, and commutative up to column order: at
// each position the output is non-Null iff every leg is non-Null and
// every predicate accepts, independent of nesting or leg order.
func canonCompose(n *algebra.Node) (*algebra.Node, []int, error) {
	// Canonicalize the children first: any compose reachable below —
	// even through a since-elided permutation projection — is already a
	// fully flattened, leg-sorted canonical compose with its predicate
	// at its top. Flattening over the canonical children therefore
	// flattens the whole compose region.
	l, lm, err := canonNode(n.Inputs[0])
	if err != nil {
		return nil, nil, err
	}
	r, rm, err := canonNode(n.Inputs[1])
	if err != nil {
		return nil, nil, err
	}
	// Column map from n's output columns into the concat of the two
	// canonical children (the "concat space").
	nl := len(lm)
	comb := make([]int, nl+len(rm))
	copy(comb, lm)
	for i, j := range rm {
		comb[nl+i] = nl + j
	}

	// Flatten the canonical children's compose spines into a leg list,
	// collecting every join predicate with the concat-space offset of
	// its compose's first column.
	type flatPred struct {
		e    expr.Expr
		base int
	}
	var legs []*algebra.Node
	var legStart []int
	var preds []flatPred
	totalCols := 0
	var gather func(m *algebra.Node) int
	gather = func(m *algebra.Node) int {
		if m.Kind != algebra.KindCompose {
			off := totalCols
			legs = append(legs, m)
			legStart = append(legStart, off)
			totalCols += m.Schema.NumFields()
			return off
		}
		off := gather(m.Inputs[0])
		gather(m.Inputs[1])
		if m.Pred != nil {
			preds = append(preds, flatPred{e: m.Pred, base: off})
		}
		return off
	}
	gather(l)
	gather(r)
	if n.Pred != nil {
		p, err := remapThrough(n.Pred, comb)
		if err != nil {
			return nil, nil, err
		}
		preds = append(preds, flatPred{e: p, base: 0})
	}

	// Sort legs by canonical rendering (stable: ties keep source order).
	order := identity(len(legs))
	renders := make([]string, len(legs))
	for i, leg := range legs {
		renders[i] = renderNode(leg)
	}
	sort.SliceStable(order, func(a, b int) bool { return renders[order[a]] < renders[order[b]] })

	// Concat-space -> sorted-space column map.
	canonStart := make([]int, len(legs))
	off := 0
	for _, legIdx := range order {
		canonStart[legIdx] = off
		off += legs[legIdx].Schema.NumFields()
	}
	sortMap := make([]int, totalCols)
	for i, leg := range legs {
		for c := 0; c < leg.Schema.NumFields(); c++ {
			sortMap[legStart[i]+c] = canonStart[i] + c
		}
	}

	// Remap predicates into the sorted space and merge their conjuncts.
	var conjs []expr.Expr
	for _, fp := range preds {
		m := make(map[int]int)
		for j := fp.base; j < totalCols; j++ {
			m[j-fp.base] = sortMap[j]
		}
		e, err := expr.Remap(fp.e, m)
		if err != nil {
			return nil, nil, err
		}
		conjs = append(conjs, splitConjuncts(e)...)
	}
	conjs, err = sortConjuncts(conjs)
	if err != nil {
		return nil, nil, err
	}
	pred, err := conjoin(conjs)
	if err != nil {
		return nil, nil, err
	}

	// Rebuild left-deep over the sorted legs; the merged predicate rides
	// on the outermost compose, whose concatenated schema is the sorted
	// flat column space.
	acc := legs[order[0]]
	for i := 1; i < len(order); i++ {
		var p expr.Expr
		if i == len(order)-1 {
			p = pred
		}
		acc, err = algebra.Compose(acc, legs[order[i]], p, "", "")
		if err != nil {
			return nil, nil, err
		}
	}
	// n's output column i sits at comb[i] in concat space, which lands
	// at sortMap[comb[i]] in the canonical output.
	colMap := make([]int, len(comb))
	for i, c := range comb {
		colMap[i] = sortMap[c]
	}
	return acc, colMap, nil
}

// scopeHull folds the per-leaf composed scopes of Proposition 2.1 into
// one hull: the widest effective scope of the block over any path.
func scopeHull(root *algebra.Node) algebra.ScopeProps {
	scopes := algebra.QueryScopes(root)
	out := algebra.UnitScope()
	first := true
	for _, s := range scopes {
		if first {
			out, first = s, false
			continue
		}
		out.FixedSize = out.FixedSize && s.FixedSize
		out.Sequential = out.Sequential && s.Sequential
		out.Relative = out.Relative && s.Relative
		out.Win = out.Win.Hull(s.Win)
	}
	if out.FixedSize {
		if sz, ok := out.Win.Size(); ok {
			out.Size = sz
		} else {
			out.FixedSize = false
		}
	}
	return out
}

// renderNode renders a canonical tree as its Key. The rendering is
// injective on canonical trees: every structural degree of freedom
// (operator, parameters, child order) appears, and nothing cosmetic
// (attribute names, qualifiers) does.
func renderNode(n *algebra.Node) string {
	var b strings.Builder
	writeNode(&b, n)
	return b.String()
}

func writeNode(b *strings.Builder, n *algebra.Node) {
	switch n.Kind {
	case algebra.KindBase:
		fmt.Fprintf(b, "base(%s;%s)", n.Name, schemaTypes(n.Schema))
	case algebra.KindConst:
		b.WriteString("const(")
		for i, v := range n.Rec {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(b, "%s:%s", v.String(), v.T)
		}
		b.WriteByte(')')
	case algebra.KindSelect:
		b.WriteString("sel{")
		writeExpr(b, n.Pred)
		b.WriteString("}(")
		writeNode(b, n.Inputs[0])
		b.WriteByte(')')
	case algebra.KindProject:
		b.WriteString("proj{")
		for i, it := range n.Items {
			if i > 0 {
				b.WriteByte(',')
			}
			writeExpr(b, it.Expr)
		}
		b.WriteString("}(")
		writeNode(b, n.Inputs[0])
		b.WriteByte(')')
	case algebra.KindPosOffset:
		fmt.Fprintf(b, "shift{%+d}(", n.Offset)
		writeNode(b, n.Inputs[0])
		b.WriteByte(')')
	case algebra.KindValueOffset:
		fmt.Fprintf(b, "voff{%+d}(", n.Offset)
		writeNode(b, n.Inputs[0])
		b.WriteByte(')')
	case algebra.KindAgg:
		fmt.Fprintf(b, "agg{%s,%d,%s}(", n.Agg.Func, n.Agg.Arg, windowKey(n.Agg.Window))
		writeNode(b, n.Inputs[0])
		b.WriteByte(')')
	case algebra.KindCompose:
		b.WriteString("join{")
		if n.Pred != nil {
			writeExpr(b, n.Pred)
		} else {
			b.WriteByte('-')
		}
		b.WriteString("}(")
		writeNode(b, n.Inputs[0])
		b.WriteByte(',')
		writeNode(b, n.Inputs[1])
		b.WriteByte(')')
	case algebra.KindCollapse:
		fmt.Fprintf(b, "collapse{%s,%d,%d}(", n.Agg.Func, n.Agg.Arg, n.Factor)
		writeNode(b, n.Inputs[0])
		b.WriteByte(')')
	case algebra.KindExpand:
		fmt.Fprintf(b, "expand{%d}(", n.Factor)
		writeNode(b, n.Inputs[0])
		b.WriteByte(')')
	default:
		fmt.Fprintf(b, "?%s", n.Kind)
	}
}

func windowKey(w algebra.Window) string {
	lo, hi := "-inf", "+inf"
	if !w.LoUnbounded {
		lo = fmt.Sprintf("%d", w.Lo)
	}
	if !w.HiUnbounded {
		hi = fmt.Sprintf("%d", w.Hi)
	}
	return lo + ".." + hi
}

func schemaTypes(s *seq.Schema) string {
	var b strings.Builder
	for i := 0; i < s.NumFields(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(s.Field(i).Type.String())
	}
	return b.String()
}
