package seqproc_test

import (
	"strings"
	"sync"
	"testing"

	seqproc "repro"
	"repro/internal/server"
	"repro/internal/workload"
)

// TestLibraryServerParity: a DB is a facade over the server engine, so
// the same data and SEQL give identical entries through seqproc.DB and
// a server.Session, and the library's page counters move by exactly
// what RunAnalyze attributes to the plan's nodes.
func TestLibraryServerParity(t *testing.T) {
	ibm, dec, hp, err := workload.Table1(1)
	if err != nil {
		t.Fatal(err)
	}
	db := seqproc.New()
	srv := server.New(server.Config{})
	for _, b := range []struct {
		name string
		data *seqproc.SequenceData
		kind seqproc.StorageKind
	}{{"ibm", ibm, seqproc.Sparse}, {"dec", dec, seqproc.Sparse}, {"hp", hp, seqproc.Dense}} {
		if err := db.CreateSequence(b.name, b.data, b.kind); err != nil {
			t.Fatal(err)
		}
		if err := srv.CreateSequence(b.name, b.data, b.kind); err != nil {
			t.Fatal(err)
		}
	}
	sess := srv.NewSession("parity")
	span := seqproc.NewSpan(1, 750)
	for _, text := range []string{
		"select(compose(ibm, hp), ibm.close > hp.close)",
		"sum(ibm, close, 5)",
		"project(compose(ibm as cur, prev(ibm) as before), cur.close - before.close as change)",
		"compose(compose(ibm, dec), hp)",
		"voffset(dec, 1)",
	} {
		q, err := db.Query(text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		got, err := q.Run(span)
		if err != nil {
			t.Fatalf("%s: library run: %v", text, err)
		}
		want, err := sess.Query(text, span)
		if err != nil {
			t.Fatalf("%s: session query: %v", text, err)
		}
		if g, w := got.Entries(), want.Entries; len(g) != len(w) {
			t.Fatalf("%s: library %d entries, session %d", text, len(g), len(w))
		} else {
			for i := range g {
				if g[i].Pos != w[i].Pos || !g[i].Rec.Equal(w[i].Rec) {
					t.Fatalf("%s: entry %d: library %v, session %v", text, i, g[i], w[i])
				}
			}
		}

		db.ResetPageStats()
		a, err := q.RunAnalyze(span)
		if err != nil {
			t.Fatalf("%s: analyze: %v", text, err)
		}
		var moved seqproc.PageStatsSnapshot
		for _, name := range db.Sequences() {
			st, err := db.TakePageStats(name)
			if err != nil {
				t.Fatal(err)
			}
			moved = moved.Add(st)
		}
		if total := a.Root.TotalPages(); moved != total {
			t.Errorf("%s: page counters moved %v, analysis attributes %v", text, moved, total)
		}
		if moved.Pages() == 0 {
			t.Errorf("%s: run touched no pages; the page parity is vacuous", text)
		}
	}
}

// intData is positions lo..hi holding v = position.
func intData(t *testing.T, lo, hi int) *seqproc.SequenceData {
	t.Helper()
	var entries []seqproc.Entry
	for p := lo; p <= hi; p++ {
		entries = append(entries, seqproc.Entry{Pos: seqproc.Pos(p), Rec: seqproc.Record{seqproc.Int(int64(p))}})
	}
	data, err := seqproc.NewData(seqproc.MustSchema(seqproc.Field{Name: "v", Type: seqproc.TInt}), entries)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestConcurrentRunAndAppend: queries on one DB run concurrently with
// appends (and the view maintenance they trigger), and every run sees
// one consistent snapshot — a gap-free prefix of the appended positions
// that never shrinks between a reader's runs. Run under -race.
func TestConcurrentRunAndAppend(t *testing.T) {
	db := seqproc.New()
	if err := db.CreateSequence("s", intData(t, 1, 100), seqproc.Sparse); err != nil {
		t.Fatal(err)
	}
	span := seqproc.NewSpan(1, 400)
	if _, err := db.Materialize("high", "select(s, v > 50)", span); err != nil {
		t.Fatal(err)
	}
	const last = 300
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for p := 101; p <= last; p++ {
			if err := db.Append("s", seqproc.Pos(p), seqproc.Record{seqproc.Int(int64(p))}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r, text := range []string{"select(s, v > 0)", "select(s, v > 50)", "select(s, v > 0)"} {
		first := seqproc.Pos(1)
		if text == "select(s, v > 50)" {
			first = 51
		}
		wg.Add(1)
		go func(r int, text string, first seqproc.Pos) {
			defer wg.Done()
			q, err := db.Query(text)
			if err != nil {
				t.Error(err)
				return
			}
			seen := 0
			for i := 0; i < 40; i++ {
				rs, err := q.Run(span)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				entries := rs.Entries()
				for j, e := range entries {
					if e.Pos != first+seqproc.Pos(j) {
						t.Errorf("reader %d: run %d holds position %d at index %d: not one snapshot", r, i, e.Pos, j)
						return
					}
				}
				if len(entries) < seen {
					t.Errorf("reader %d: run %d saw %d records after %d", r, i, len(entries), seen)
					return
				}
				seen = len(entries)
			}
		}(r, text, first)
	}
	wg.Wait()
	q, err := db.Query("select(s, v > 50)")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := q.Run(span)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Count() != last-50 {
		t.Fatalf("after the appends: %d records, want %d", rs.Count(), last-50)
	}
}

// TestQueryAfterDropSequenceFails: a query bound before its base is
// dropped returns an error when it next runs — never a stale read of
// what the dropped sequence held.
func TestQueryAfterDropSequenceFails(t *testing.T) {
	db := seqproc.New()
	if err := db.CreateSequence("s", intData(t, 1, 20), seqproc.Sparse); err != nil {
		t.Fatal(err)
	}
	q, err := db.Query("select(s, v > 5)")
	if err != nil {
		t.Fatal(err)
	}
	span := seqproc.NewSpan(1, 20)
	if _, err := q.Run(span); err != nil {
		t.Fatal(err)
	}
	if err := db.DropSequence("s"); err != nil {
		t.Fatal(err)
	}
	if rs, err := q.Run(span); err == nil {
		t.Fatalf("run after drop returned %d records, want an error", rs.Count())
	} else if !strings.Contains(err.Error(), `unknown sequence "s"`) {
		t.Fatalf("run after drop: %v", err)
	}
	if _, err := q.Explain(span); err == nil {
		t.Fatal("explain after drop must fail")
	}
}
