package storage

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/seq"
)

var closeSchema = seq.MustSchema(seq.Field{Name: "close", Type: seq.TFloat})

func mkEntries(positions ...seq.Pos) []seq.Entry {
	es := make([]seq.Entry, len(positions))
	for i, p := range positions {
		es[i] = seq.Entry{Pos: p, Rec: seq.Record{seq.Float(float64(p))}}
	}
	return es
}

func scanPositions(t *testing.T, s seq.Sequence, span seq.Span) []seq.Pos {
	t.Helper()
	es, err := seq.Collect(s.Scan(span))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]seq.Pos, len(es))
	for i, e := range es {
		out[i] = e.Pos
	}
	return out
}

func eqPos(a, b []seq.Pos) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mkStore builds a single-version store of the given kind over entries
// (any order); a non-empty span widens the valid range beyond the hull.
func mkStore(t *testing.T, kind Kind, entries []seq.Entry, span seq.Span, rpp int) *Snapshot {
	t.Helper()
	m, err := seq.NewMaterialized(closeSchema, entries)
	if err != nil {
		t.Fatal(err)
	}
	if !span.IsEmpty() {
		if m, err = m.WithSpan(span); err != nil {
			t.Fatal(err)
		}
	}
	st, err := FromMaterialized(m, kind, rpp)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestDenseBasics(t *testing.T) {
	d := mkStore(t, KindDense, mkEntries(1, 3, 5), seq.EmptySpan, 2)
	info := d.Info()
	if info.Span != seq.NewSpan(1, 5) {
		t.Errorf("span = %v", info.Span)
	}
	if info.Density != 0.6 {
		t.Errorf("density = %g, want 0.6", info.Density)
	}
	if d.Count() != 3 {
		t.Errorf("count = %d", d.Count())
	}
	if got := scanPositions(t, d, seq.AllSpan); !eqPos(got, []seq.Pos{1, 3, 5}) {
		t.Errorf("scan = %v", got)
	}
}

func TestDenseProbeCosts(t *testing.T) {
	d := mkStore(t, KindDense, mkEntries(1, 2, 3, 4), seq.EmptySpan, 2)
	r, err := d.Probe(3)
	if err != nil || r.IsNull() {
		t.Fatalf("Probe(3) = %v, %v", r, err)
	}
	st := d.Stats().Snapshot()
	if st.RandPages != 1 || st.ProbeRecords != 1 {
		t.Errorf("probe cost = %v, want 1 random page", st)
	}
	// A probe outside the span answers Null without touching a page.
	if r, _ := d.Probe(99); !r.IsNull() {
		t.Error("probe outside span must be Null")
	}
	if got := d.Stats().Snapshot().RandPages; got != 1 {
		t.Errorf("out-of-span probe touched a page: %d", got)
	}
}

func TestDenseScanCosts(t *testing.T) {
	// 10 positions, 4 per page -> 3 pages for a full scan.
	d := mkStore(t, KindDense, mkEntries(1, 4, 10), seq.NewSpan(1, 10), 4)
	if got := d.AccessCosts(); got.StreamPages != 3 || got.ProbePages != 1 {
		t.Errorf("AccessCosts = %+v", got)
	}
	scanPositions(t, d, seq.AllSpan)
	st := d.Stats().Snapshot()
	if st.SeqPages != 3 {
		t.Errorf("full scan touched %d pages, want 3", st.SeqPages)
	}
	if st.SeqRecords != 3 {
		t.Errorf("records = %d, want 3", st.SeqRecords)
	}
	// A restricted scan touches fewer pages (the Figure 3 effect).
	d.Stats().Reset()
	scanPositions(t, d, seq.NewSpan(1, 4))
	if got := d.Stats().Snapshot().SeqPages; got != 1 {
		t.Errorf("restricted scan touched %d pages, want 1", got)
	}
}

// The store is built from a Materialized, which rejects duplicate
// positions, non-conforming records and a span not covering its entries
// before storage sees them; what is left for the constructor to refuse
// is checked here.
func TestConstructorRejects(t *testing.T) {
	if _, err := seq.NewMaterialized(closeSchema, mkEntries(1, 1)); err == nil {
		t.Error("duplicate positions must be rejected")
	}
	if _, err := seq.NewMaterialized(closeSchema, []seq.Entry{{Pos: 1, Rec: seq.Record{seq.Int(1)}}}); err == nil {
		t.Error("non-conforming record must be rejected")
	}
	m := seq.MustMaterialized(closeSchema, mkEntries(5))
	if _, err := m.WithSpan(seq.NewSpan(1, 3)); err == nil {
		t.Error("span not covering entries must be rejected")
	}
	if _, err := FromMaterialized(nil, KindDense, 0); err == nil {
		t.Error("nil data must be rejected")
	}
	all, err := m.WithSpan(seq.AllSpan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromMaterialized(all, KindDense, 0); err == nil {
		t.Error("unbounded dense span must be rejected")
	}
	if _, err := FromMaterialized(all, KindSparse, 0); err != nil {
		t.Errorf("unbounded sparse span: %v", err)
	}
}

func TestSparseBasics(t *testing.T) {
	s := mkStore(t, KindSparse, mkEntries(5, 1, 3), seq.NewSpan(1, 10), 2)
	if s.Info().Density != 0.3 {
		t.Errorf("density = %g", s.Info().Density)
	}
	if got := scanPositions(t, s, seq.AllSpan); !eqPos(got, []seq.Pos{1, 3, 5}) {
		t.Errorf("scan = %v", got)
	}
	r, err := s.Probe(3)
	if err != nil || r.IsNull() || r[0].AsFloat() != 3 {
		t.Errorf("Probe(3) = %v, %v", r, err)
	}
	if r, _ := s.Probe(2); !r.IsNull() {
		t.Error("Probe(2) must be Null")
	}
}

func TestSparseProbeCostGrowsLogarithmically(t *testing.T) {
	// 64 entries, 4 per page -> 16 pages -> depth 4.
	s := mkStore(t, KindSparse, mkEntries(seqRange(1, 64)...), seq.EmptySpan, 4)
	if got := s.AccessCosts().ProbePages; got != 4 {
		t.Errorf("probe depth = %d, want 4", got)
	}
	s.Probe(30)
	if got := s.Stats().Snapshot().RandPages; got != 4 {
		t.Errorf("probe charged %d pages, want 4", got)
	}
}

func TestSparseScanCharges(t *testing.T) {
	s := mkStore(t, KindSparse, mkEntries(seqRange(1, 8)...), seq.EmptySpan, 4)
	scanPositions(t, s, seq.AllSpan)
	st := s.Stats().Snapshot()
	if st.SeqPages != 2 {
		t.Errorf("full scan pages = %d, want 2", st.SeqPages)
	}
	// Scanning a suffix pays one index descent plus the suffix pages.
	s.Stats().Reset()
	scanPositions(t, s, seq.NewSpan(5, 8))
	st = s.Stats().Snapshot()
	if st.SeqPages != 1 || st.RandPages != s.probeDepth() {
		t.Errorf("suffix scan = %v", st)
	}
}

func TestSparseLowDensityScanCheaperThanDense(t *testing.T) {
	// 1000-position span, 10 records: sparse scans 1 page, dense scans 16.
	entries := mkEntries(seqRange(1, 10)...)
	span := seq.NewSpan(1, 1000)
	sp := mkStore(t, KindSparse, entries, span, 64)
	de := mkStore(t, KindDense, entries, span, 64)
	if sp.AccessCosts().StreamPages >= de.AccessCosts().StreamPages {
		t.Errorf("sparse scan (%d pages) must be cheaper than dense (%d) at low density",
			sp.AccessCosts().StreamPages, de.AccessCosts().StreamPages)
	}
}

func TestFromMaterialized(t *testing.T) {
	m := seq.MustMaterialized(closeSchema, mkEntries(1, 2, 3))
	for _, kind := range []Kind{KindDense, KindSparse} {
		st, err := FromMaterialized(m, kind, 0)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if got := scanPositions(t, st, seq.AllSpan); !eqPos(got, []seq.Pos{1, 2, 3}) {
			t.Errorf("%v scan = %v", kind, got)
		}
		if st.Kind() != kind || st.SnapshotEpoch() != 0 || st.VersionEpoch() != 0 {
			t.Errorf("%v: kind %v at epoch %d/%d", kind, st.Kind(), st.SnapshotEpoch(), st.VersionEpoch())
		}
	}
	if _, err := FromMaterialized(m, Kind(99), 0); err == nil {
		t.Error("unknown kind must be rejected")
	}
	if KindDense.String() != "dense" || KindSparse.String() != "sparse" || Kind(9).String() == "" {
		t.Error("Kind.String wrong")
	}
}

func TestStatsSnapshotArithmetic(t *testing.T) {
	a := StatsSnapshot{SeqPages: 5, RandPages: 2, SeqRecords: 10, ProbeRecords: 1}
	b := StatsSnapshot{SeqPages: 1, RandPages: 1, SeqRecords: 4, ProbeRecords: 1}
	if got := a.Sub(b); got != (StatsSnapshot{SeqPages: 4, RandPages: 1, SeqRecords: 6, ProbeRecords: 0}) {
		t.Errorf("Sub = %+v", got)
	}
	if got := a.Add(b); got != (StatsSnapshot{SeqPages: 6, RandPages: 3, SeqRecords: 14, ProbeRecords: 2}) {
		t.Errorf("Add = %+v", got)
	}
	if a.Pages() != 7 {
		t.Errorf("Pages = %d", a.Pages())
	}
	if a.String() == "" {
		t.Error("String must render")
	}
}

func seqRange(lo, hi seq.Pos) []seq.Pos {
	var out []seq.Pos
	for p := lo; p <= hi; p++ {
		out = append(out, p)
	}
	return out
}

// Property: dense and sparse stores agree with the Materialized reference
// on every probe and on scans over random spans.
func TestStoresAgreeWithReference(t *testing.T) {
	f := func(seed int64, lo, hi int8) bool {
		rng := rand.New(rand.NewSource(seed))
		posSet := make(map[seq.Pos]bool)
		for i, n := 0, rng.Intn(30); i < n; i++ {
			posSet[seq.Pos(rng.Intn(80))] = true
		}
		var positions []seq.Pos
		for p := range posSet {
			positions = append(positions, p)
		}
		entries := mkEntries(positions...)
		ref := seq.MustMaterialized(closeSchema, entries)
		dn, err := FromMaterialized(ref, KindDense, 4)
		if err != nil {
			return false
		}
		sp, err := FromMaterialized(ref, KindSparse, 4)
		if err != nil {
			return false
		}
		for p := seq.Pos(-2); p < 85; p++ {
			want, _ := ref.Probe(p)
			gd, _ := dn.Probe(p)
			gs, _ := sp.Probe(p)
			if !gd.Equal(want) || !gs.Equal(want) {
				return false
			}
		}
		qspan := seq.Span{Start: seq.Pos(lo), End: seq.Pos(hi)}
		want, _ := seq.Collect(ref.Scan(qspan))
		gotD, _ := seq.Collect(dn.Scan(qspan))
		gotS, _ := seq.Collect(sp.Scan(qspan))
		if len(want) != len(gotD) || len(want) != len(gotS) {
			return false
		}
		for i := range want {
			if want[i].Pos != gotD[i].Pos || !want[i].Rec.Equal(gotD[i].Rec) {
				return false
			}
			if want[i].Pos != gotS[i].Pos || !want[i].Rec.Equal(gotS[i].Rec) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
