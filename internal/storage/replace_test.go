package storage

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/seq"
)

func replaceSchema(t *testing.T) *seq.Schema {
	t.Helper()
	s, err := seq.NewSchema(seq.Field{Name: "v", Type: seq.TInt})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func replaceEntries(lo, hi int) []seq.Entry {
	var out []seq.Entry
	for p := lo; p <= hi; p++ {
		out = append(out, seq.Entry{Pos: seq.Pos(p), Rec: seq.Record{seq.Int(int64(p))}})
	}
	return out
}

func buildKind(schema *seq.Schema, entries []seq.Entry, span seq.Span, kind Kind) (*Snapshot, error) {
	m, err := seq.NewMaterialized(schema, entries)
	if err != nil {
		return nil, err
	}
	if m, err = m.WithSpan(span); err != nil {
		return nil, err
	}
	return FromMaterialized(m, kind, 4)
}

// scanAll collects a store's full content.
func scanAll(t *testing.T, s Store) []seq.Entry {
	t.Helper()
	got, err := seq.Collect(s.Scan(s.Info().Span))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestReplaceRegion(t *testing.T) {
	schema := replaceSchema(t)
	fresh := []seq.Entry{
		{Pos: 5, Rec: seq.Record{seq.Int(-5)}},
		{Pos: 7, Rec: seq.Record{seq.Int(-7)}},
	}
	for _, kind := range []Kind{KindSparse, KindDense} {
		old, err := buildKind(schema, replaceEntries(1, 10), seq.NewSpan(1, 10), kind)
		if err != nil {
			t.Fatal(err)
		}
		// Replace [4,8] (5 old records) with records at 5 and 7 only.
		got, ok, err := Replace(old, seq.NewSpan(4, 8), fresh)
		if err != nil || !ok {
			t.Fatalf("%v: Replace = ok %v, err %v", kind, ok, err)
		}
		entries := scanAll(t, got)
		wantPos := []seq.Pos{1, 2, 3, 5, 7, 9, 10}
		if len(entries) != len(wantPos) {
			t.Fatalf("%v: replaced content %v, want positions %v", kind, entries, wantPos)
		}
		for i, e := range entries {
			if e.Pos != wantPos[i] {
				t.Fatalf("%v: entry %d at %d, want %d", kind, i, e.Pos, wantPos[i])
			}
			want := seq.Int(int64(e.Pos))
			if e.Pos == 5 || e.Pos == 7 {
				want = seq.Int(-int64(e.Pos))
			}
			if e.Rec[0] != want {
				t.Fatalf("%v: entry at %d = %v, want %v", kind, e.Pos, e.Rec[0], want)
			}
		}
		// Copy-on-write: the old store is untouched.
		if n := len(scanAll(t, old)); n != 10 {
			t.Fatalf("%v: original store mutated, %d entries", kind, n)
		}
		// An empty replacement clears the region.
		cleared, ok, err := Replace(old, seq.NewSpan(4, 8), nil)
		if err != nil || !ok {
			t.Fatalf("%v: clearing Replace = ok %v, err %v", kind, ok, err)
		}
		if n := len(scanAll(t, cleared)); n != 5 {
			t.Fatalf("%v: cleared content has %d entries, want 5", kind, n)
		}
	}
}

func TestReplaceRejectsBadFresh(t *testing.T) {
	schema := replaceSchema(t)
	old, err := buildKind(schema, replaceEntries(1, 10), seq.NewSpan(1, 10), KindSparse)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		hit   seq.Span
		fresh []seq.Entry
		want  string
	}{
		{"outside region", seq.NewSpan(4, 8), replaceEntries(9, 9), "outside region"},
		{"unordered", seq.NewSpan(4, 8),
			[]seq.Entry{{Pos: 7, Rec: seq.Record{seq.Int(7)}}, {Pos: 5, Rec: seq.Record{seq.Int(5)}}},
			"not strictly ordered"},
		{"null record", seq.NewSpan(4, 8), []seq.Entry{{Pos: 5}}, "Null replacement"},
		{"wrong schema", seq.NewSpan(4, 8),
			[]seq.Entry{{Pos: 5, Rec: seq.Record{seq.Str("x")}}}, "does not conform"},
	}
	for _, tc := range cases {
		_, _, err := Replace(old, tc.hit, tc.fresh)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// sharedPages counts the pages of b that are the very pages of a.
func sharedPages(a, b *Snapshot) int {
	old := make(map[*Page]bool, len(a.v.pages))
	for _, pg := range a.v.pages {
		old[pg] = true
	}
	n := 0
	for _, pg := range b.v.pages {
		if old[pg] {
			n++
		}
	}
	return n
}

// TestReplaceSharesPages pins the copy-on-write granularity: only the
// pages overlapping the region are rebuilt, unless a sparse replacement
// changes the record count, which shifts the packing behind it.
func TestReplaceSharesPages(t *testing.T) {
	schema := replaceSchema(t)
	cases := []struct {
		name   string
		kind   Kind
		hit    seq.Span
		fresh  []seq.Entry
		shared int // of 16 pages of 4
	}{
		{"dense interior", KindDense, seq.NewSpan(30, 33), replaceEntries(31, 31), 14},
		{"dense empty region", KindDense, seq.NewSpan(70, 80), nil, 16},
		{"sparse interior, same count", KindSparse, seq.NewSpan(30, 33), replaceEntries(30, 33), 14},
		{"sparse interior, fewer", KindSparse, seq.NewSpan(30, 33), replaceEntries(31, 31), 7},
		{"sparse tail", KindSparse, seq.NewSpan(62, 64), replaceEntries(62, 63), 15},
		{"sparse nothing inside", KindSparse, seq.NewSpan(70, 80), nil, 16},
	}
	for _, tc := range cases {
		old, err := buildKind(schema, replaceEntries(1, 64), seq.NewSpan(1, 64), tc.kind)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := Replace(old, tc.hit, tc.fresh)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if n := sharedPages(old, got.(*Snapshot)); n != tc.shared {
			t.Errorf("%s: %d pages shared with the old store, want %d", tc.name, n, tc.shared)
		}
	}
}

// TestReplaceMatchesRebuild checks replacement against packing the
// merged content from scratch: same records, count and page accounting,
// for random regions including ones reaching outside the store's span.
func TestReplaceMatchesRebuild(t *testing.T) {
	schema := replaceSchema(t)
	rng := rand.New(rand.NewSource(12))
	span := seq.NewSpan(10, 90)
	for iter := 0; iter < 400; iter++ {
		kind := Kind(iter % 2)
		var entries []seq.Entry
		for p := span.Start; p <= span.End; p++ {
			if rng.Intn(3) > 0 {
				entries = append(entries, seq.Entry{Pos: p, Rec: seq.Record{seq.Int(p)}})
			}
		}
		old, err := buildKind(schema, entries, span, kind)
		if err != nil {
			t.Fatal(err)
		}
		a := seq.Pos(rng.Intn(100))
		hit := seq.NewSpan(a, a+seq.Pos(rng.Intn(30)))
		var fresh, want []seq.Entry
		for p := hit.Start; p <= hit.End; p++ {
			if span.Contains(p) && rng.Intn(2) == 0 {
				fresh = append(fresh, seq.Entry{Pos: p, Rec: seq.Record{seq.Int(-p)}})
			}
		}
		for _, e := range entries {
			if !hit.Contains(e.Pos) {
				want = append(want, e)
			}
		}
		want = append(want, fresh...)
		ref, err := buildKind(schema, want, span, kind)
		if err != nil {
			t.Fatal(err)
		}
		st, _, err := Replace(old, hit, fresh)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		got := st.(*Snapshot)
		ge, re := scanAll(t, got), scanAll(t, ref)
		if len(ge) != len(re) || got.Count() != ref.Count() {
			t.Fatalf("iter %d %v hit %v: %d records (count %d), want %d", iter, kind, hit, len(ge), got.Count(), ref.Count())
		}
		for i := range ge {
			if ge[i].Pos != re[i].Pos || !ge[i].Rec.Equal(re[i].Rec) {
				t.Fatalf("iter %d %v hit %v: entry %d = %v, want %v", iter, kind, hit, i, ge[i], re[i])
			}
		}
		if got.AccessCosts() != ref.AccessCosts() || got.Info() != ref.Info() {
			t.Fatalf("iter %d %v hit %v: costs %+v info %+v, rebuilt %+v %+v",
				iter, kind, hit, got.AccessCosts(), got.Info(), ref.AccessCosts(), ref.Info())
		}
		if got.Stats().Snapshot() != ref.Stats().Snapshot() {
			t.Fatalf("iter %d %v hit %v: a full scan charged %v, rebuilt %v",
				iter, kind, hit, got.Stats().Snapshot(), ref.Stats().Snapshot())
		}
		if n := len(scanAll(t, old)); n != len(entries) {
			t.Fatalf("iter %d: original store mutated, %d entries", iter, n)
		}
	}
}
