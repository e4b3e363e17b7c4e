package seqproc

import (
	"fmt"
	"slices"

	"repro/internal/algebra"
	"repro/internal/parser"
)

// Grouping is a named set of same-schema DB sequences queried
// collectively (§5.1: "given a database of experimental result
// sequences, a query might ask for those sequences that satisfy some
// condition"). Its queries are SEQL templates, such as
// select(avg(runs, reading, 10), avg > 70.0) for a grouping named runs,
// bound per member against the DB's catalog except that the grouping's
// name resolves to the member: it shadows a sequence of the same name.
// Member names never pass through the SEQL lexer, so any sequence can be
// a member. Each member's query is an ordinary read (Query.Run).
//
// Add must not run concurrently with the grouping's other methods; the
// reads of Apply, Where and AggregateEach may run concurrently.
type Grouping struct {
	db      *DB
	name    string
	members []string // sorted
	schema  *Schema  // the first member's
}

// NewGrouping creates an empty grouping. Templates name it, so the name
// must be a SEQL identifier.
func (db *DB) NewGrouping(name string) *Grouping { return &Grouping{db: db, name: name} }

// Add makes an existing sequence a member. Its schema must be the first
// member's.
func (g *Grouping) Add(seqName string) error {
	info, err := g.db.Describe(seqName)
	i, dup := slices.BinarySearch(g.members, seqName)
	switch {
	case err != nil:
	case dup:
		err = fmt.Errorf("%q is already a member", seqName)
	case g.schema != nil && !info.Schema.Equal(g.schema):
		err = fmt.Errorf("member %q schema %v does not match %v", seqName, info.Schema, g.schema)
	default:
		g.schema = info.Schema
		g.members = slices.Insert(g.members, i, seqName)
		return nil
	}
	return fmt.Errorf("seqproc: grouping %q: %w", g.name, err)
}

// Members lists the member names, sorted.
func (g *Grouping) Members() []string { return slices.Clone(g.members) }

// Schema returns the members' record schema, nil while there are none.
func (g *Grouping) Schema() *Schema { return g.schema }

// MemberResult is one member's evaluated template.
type MemberResult struct {
	Name   string
	Result *ResultSet
}

// Apply parses the template once, then binds and runs it for every
// member over the span, in member-name order.
func (g *Grouping) Apply(template string, span Span) ([]MemberResult, error) {
	shape, err := parser.ParseShape(template)
	if err != nil {
		return nil, fmt.Errorf("seqproc: grouping %q: %w", g.name, err)
	}
	cat := g.db.srv.Catalog()
	var out []MemberResult
	for _, member := range g.members {
		root, err := shape.Bind(parser.CatalogFunc(func(name string) (*algebra.Node, bool) {
			if name == g.name {
				name = member
			}
			return cat.Resolve(name)
		}), shape.Slots)
		var res *ResultSet
		if err == nil {
			res, err = (&Query{db: g.db, root: root}).Run(span)
		}
		if err != nil {
			return nil, fmt.Errorf("seqproc: grouping %q: member %q: %w", g.name, member, err)
		}
		out = append(out, MemberResult{Name: member, Result: res})
	}
	return out, nil
}

// Where returns the members whose template produces at least one record
// in the span — the "which sequences satisfy some condition" query.
func (g *Grouping) Where(template string, span Span) ([]string, error) {
	results, err := g.Apply(template, span)
	var out []string
	for _, r := range results {
		if r.Result.Count() > 0 {
			out = append(out, r.Name)
		}
	}
	return out, err
}

// AggregateEach returns each member's single aggregate value: the last
// record of its template's result, which must have one attribute (e.g.
// a whole-sequence aggregate read at one position). Members with empty
// results are skipped.
func (g *Grouping) AggregateEach(template string, span Span) (map[string]Value, error) {
	results, err := g.Apply(template, span)
	if err != nil {
		return nil, err
	}
	out := make(map[string]Value, len(results))
	for _, r := range results {
		entries := r.Result.Entries()
		if len(entries) == 0 {
			continue
		}
		last := entries[len(entries)-1].Rec
		if len(last) != 1 {
			return nil, fmt.Errorf("seqproc: grouping %q: member %q: aggregate template must produce single-attribute records, got %v",
				g.name, r.Name, last)
		}
		out[r.Name] = last[0]
	}
	return out, nil
}
