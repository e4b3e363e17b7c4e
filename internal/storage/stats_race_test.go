package storage

import (
	"sync"
	"testing"

	"repro/internal/seq"
)

func raceStore(t *testing.T, kind Kind) Store {
	t.Helper()
	schema := seq.MustSchema(seq.Field{Name: "v", Type: seq.TInt})
	var entries []seq.Entry
	for p := seq.Pos(1); p <= 512; p++ {
		entries = append(entries, seq.Entry{Pos: p, Rec: seq.Record{seq.Int(int64(p))}})
	}
	m := seq.MustMaterialized(schema, entries)
	st, err := FromMaterialized(m, kind, 16)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStatsConcurrentScanSnapshotReset exercises the documented
// concurrency contract of Stats under the race detector: scans, probes,
// snapshots and resets may all race, every counter update stays atomic,
// and no snapshot ever observes a torn (negative or wildly out-of-range)
// counter value.
func TestStatsConcurrentScanSnapshotReset(t *testing.T) {
	for _, kind := range []Kind{KindDense, KindSparse} {
		t.Run(kind.String(), func(t *testing.T) {
			st := raceStore(t, kind)
			const rounds = 200
			var wg sync.WaitGroup
			wg.Add(3)
			go func() { // scanner
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					cur := st.Scan(seq.AllSpan)
					for {
						if _, _, ok := cur.Next(); !ok {
							break
						}
					}
					cur.Close()
				}
			}()
			go func() { // prober
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					if _, err := st.Probe(seq.Pos(i%512) + 1); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			go func() { // snapshotter + resetter
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					snap := st.Stats().Snapshot()
					if snap.SeqPages < 0 || snap.RandPages < 0 ||
						snap.SeqRecords < 0 || snap.ProbeRecords < 0 {
						t.Errorf("torn snapshot: %+v", snap)
						return
					}
					if i%10 == 0 {
						st.Stats().Reset()
					}
				}
			}()
			wg.Wait()
		})
	}
}

// TestMeteredAttribution checks that a consumer metered through a fork
// is credited exactly the shared-counter movement its accesses cause
// when run unforked, and that the fork's accesses leave the shared
// block alone.
func TestMeteredAttribution(t *testing.T) {
	for _, kind := range []Kind{KindDense, KindSparse} {
		t.Run(kind.String(), func(t *testing.T) {
			st := raceStore(t, kind)
			access := func(s Store) int {
				cur := s.Scan(seq.NewSpan(100, 400))
				rows := 0
				for {
					if _, _, ok := cur.Next(); !ok {
						break
					}
					rows++
				}
				cur.Close()
				for p := seq.Pos(1); p <= 50; p++ {
					if _, err := s.Probe(p * 7); err != nil {
						t.Fatal(err)
					}
				}
				return rows
			}

			consumer := &Stats{}
			before := st.Stats().Snapshot()
			rows := access(st.Fork(consumer))
			if moved := st.Stats().Snapshot().Sub(before); moved != (StatsSnapshot{}) {
				t.Fatalf("fork accesses reached the shared block: %+v", moved)
			}
			got := consumer.Snapshot()

			before = st.Stats().Snapshot()
			if n := access(st); n != rows {
				t.Fatalf("unforked scan returned %d rows, forked %d", n, rows)
			}
			if delta := st.Stats().Snapshot().Sub(before); got != delta {
				t.Fatalf("consumer %+v != unforked shared delta %+v", got, delta)
			}
			if rows != 301 {
				t.Fatalf("scan returned %d rows, want 301", rows)
			}
			if got.SeqRecords != 301 || got.ProbeRecords != 50 {
				t.Fatalf("unexpected record counters: %+v", got)
			}
		})
	}
}
