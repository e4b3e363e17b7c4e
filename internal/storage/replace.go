package storage

import (
	"fmt"
	"sort"

	"repro/internal/seq"
)

// Replace builds a new store whose content equals old everywhere except
// inside hit, where it is exactly fresh. It is the write path of view
// stitching: maintenance re-evaluates only the delta halo, and splicing
// the result must not cost a full rebuild. Only the pages overlapping
// hit are rebuilt; every other page is shared with old (copy-on-write at
// page granularity, as between the versions of a Versioned store), so a
// replacement costs O(pages) in pointer copies plus O(|hit|) in records,
// and only the fresh records are validated. old is left untouched:
// pinned readers of the previous generation keep a consistent store.
//
// The second return is false when old is not an in-memory Snapshot.
func Replace(old Store, hit seq.Span, fresh []seq.Entry) (Store, bool, error) {
	s, ok := old.(*Snapshot)
	if !ok || s.v.res != nil {
		return nil, false, nil
	}
	if err := checkFresh(s.schema, s.v.span, hit, fresh); err != nil {
		return nil, false, err
	}
	ver := &version{epoch: s.v.epoch, kind: s.v.kind, span: s.v.span, pages: s.v.pages, count: s.v.count}
	if region := hit.Intersect(s.v.span); !region.IsEmpty() {
		if s.v.kind == KindDense {
			ver.pages, ver.count = spliceDense(s, region, fresh)
		} else {
			ver.pages = spliceSparse(s.v.pages, s.rpp, region, fresh)
			ver.count = 0
			if n := len(ver.pages); n > 0 {
				ver.count = (n-1)*s.rpp + len(ver.pages[n-1].Entries)
			}
		}
	}
	return &Snapshot{at: s.at, v: ver, rpp: s.rpp, schema: s.schema, stats: &Stats{}}, true, nil
}

// checkFresh validates the replacement region: entries strictly ordered,
// inside hit and the store's span, non-Null, and conforming. O(|fresh|).
func checkFresh(schema *seq.Schema, span, hit seq.Span, fresh []seq.Entry) error {
	for i, e := range fresh {
		if !hit.Contains(e.Pos) {
			return fmt.Errorf("storage: replacement entry at %d outside region %v", e.Pos, hit)
		}
		if !span.Contains(e.Pos) {
			return fmt.Errorf("storage: replacement entry at %d outside store span %v", e.Pos, span)
		}
		if i > 0 && e.Pos <= fresh[i-1].Pos {
			return fmt.Errorf("storage: replacement entries not strictly ordered at %d", e.Pos)
		}
		if e.Rec.IsNull() {
			return fmt.Errorf("storage: Null replacement record at %d (omit the position instead)", e.Pos)
		}
		if !e.Rec.Conforms(schema) {
			return fmt.Errorf("storage: replacement record %v at %d does not conform to %v", e.Rec, e.Pos, schema)
		}
	}
	return nil
}

// spliceDense copies the positional pages overlapping region (inside
// the store's span), clears region in the copies and sets fresh.
func spliceDense(s *Snapshot, region seq.Span, fresh []seq.Entry) ([]*Page, int) {
	pages := append([]*Page(nil), s.v.pages...)
	count := s.v.count
	for pi := s.densePage(region.Start); pi <= s.densePage(region.End); pi++ {
		pg := &Page{First: pages[pi].First, Slots: append([]seq.Record(nil), pages[pi].Slots...)}
		// region lies inside the dense (bounded) span.
		lo := max(region.Start-pg.First, 0)                    //seqvet:ignore spanarith bounded dense span
		hi := min(region.End-pg.First, int64(len(pg.Slots))-1) //seqvet:ignore spanarith bounded dense span
		for i := lo; i <= hi; i++ {
			if pg.Slots[i] != nil {
				pg.Slots[i] = nil
				count--
			}
		}
		pages[pi] = pg
	}
	for _, e := range fresh {
		pg := pages[s.densePage(e.Pos)]
		pg.Slots[e.Pos-pg.First] = e.Rec
	}
	return pages, count + len(fresh)
}

// spliceSparse returns pages with the entries inside hit replaced by
// fresh (sorted, inside hit). Pages wholly before hit are shared. Pages
// after it are shared too when the record count inside hit is unchanged;
// otherwise their packing shifts and they are repacked, keeping every
// page but the last full — the layout, and so the page accounting, of a
// store packed from scratch.
func spliceSparse(pages []*Page, rpp int, hit seq.Span, fresh []seq.Entry) []*Page {
	lo := sort.Search(len(pages), func(i int) bool {
		es := pages[i].Entries
		return es[len(es)-1].Pos >= hit.Start
	})
	hi := sort.Search(len(pages), func(i int) bool { return pages[i].First > hit.End })
	var head, tail []seq.Entry // survivors of the boundary pages
	held := 0                  // entries in pages[lo:hi]
	if lo < hi {
		es := pages[lo].Entries
		head = es[:sort.Search(len(es), func(i int) bool { return es[i].Pos >= hit.Start })]
		es = pages[hi-1].Entries
		tail = es[sort.Search(len(es), func(i int) bool { return es[i].Pos > hit.End }):]
		held = (hi-lo-1)*rpp + len(es)
	}
	rest := hi // pages[rest:hi] are repacked whole behind tail
	if held-len(head)-len(tail) != len(fresh) {
		hi = len(pages)
		if lo == hi && lo > 0 && len(pages[lo-1].Entries) < rpp {
			lo-- // extend the short last page instead of opening a new one
			head = pages[lo].Entries
		}
	} else if lo == hi {
		return pages // nothing inside hit, before or after
	}
	n := len(head) + len(fresh) + len(tail)
	if rest < hi {
		n += (hi-rest-1)*rpp + len(pages[hi-1].Entries)
	}
	mid := append(append(append(make([]seq.Entry, 0, n), head...), fresh...), tail...)
	for _, pg := range pages[rest:hi] {
		mid = append(mid, pg.Entries...)
	}
	out := make([]*Page, 0, lo+(n+rpp-1)/rpp+len(pages)-hi)
	out = packSparse(append(out, pages[:lo]...), mid, rpp)
	return append(out, pages[hi:]...)
}
