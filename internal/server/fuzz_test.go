package server

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/seq"
	"repro/internal/storage"
	"repro/internal/wire"
)

// The concurrency fuzz harness: writer goroutines Append and Reorganize
// the shared base sequence while reader sessions run queries and
// materialized-view operations concurrently. Because writes are
// deterministic — the k-th append adds record v=initial+k at position
// initial+k, and each write's publication epoch is recorded — the exact
// expected contents at ANY epoch are computable, and every reader
// asserts its result record-for-record against its own pinned epoch.
// Run with -race (the CI server job does).

// appendLog records which epoch published each append, in order.
type appendLog struct {
	mu     sync.Mutex
	epochs []int64
}

func (l *appendLog) add(e int64) {
	l.mu.Lock()
	l.epochs = append(l.epochs, e)
	l.mu.Unlock()
}

// countAt returns how many appends were published at or below epoch e.
// Epochs are recorded in increasing order (writes are serialized), so a
// binary search suffices.
func (l *appendLog) countAt(e int64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return sort.Search(len(l.epochs), func(i int) bool { return l.epochs[i] > e })
}

// expectEntries asserts that got is exactly records 1..n at positions
// 1..n (the deterministic fuzz contents after n-initial appends).
func expectEntries(got []seq.Entry, n int) error {
	if len(got) != n {
		return fmt.Errorf("got %d entries, want %d", len(got), n)
	}
	for i, e := range got {
		want := int64(i + 1)
		if int64(e.Pos) != want || len(e.Rec) != 1 || e.Rec[0].AsInt() != want {
			return fmt.Errorf("entry %d = %s@%d, want %d@%d", i, e.Rec, e.Pos, want, want)
		}
	}
	return nil
}

func TestFuzzConcurrentAppendQuery(t *testing.T) {
	const (
		initial  = 100
		writers  = 2
		readers  = 6
		appends  = 150 // per writer
		duration = 2 * time.Second
	)
	srv := testServer(t, Config{Workers: 4, Options: core.Options{Verify: true}}, initial)
	log := &appendLog{}

	// Writers: serialized appends at deterministic positions. nextPos is
	// shared so the two writers interleave; a failed claim is retried by
	// the other writer's next claim.
	var posMu sync.Mutex
	nextPos := int64(initial + 1)
	var wg sync.WaitGroup
	writerErr := make(chan error, writers+readers+2)
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < appends; i++ {
				posMu.Lock()
				pos := nextPos
				e, err := srv.Append("s", seq.Pos(pos), seq.Record{seq.Int(pos)})
				if err == nil {
					nextPos++
					log.add(e)
				}
				posMu.Unlock()
				if err != nil {
					writerErr <- fmt.Errorf("append at %d: %w", pos, err)
					return
				}
			}
		}()
	}

	// Reorganizer: repacks the sequence in place (sparse→sparse), a
	// whole-version copy-on-write publish racing the appenders.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := srv.Reorganize("s", storage.KindSparse); err != nil {
				writerErr <- fmt.Errorf("reorganize: %w", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Readers: each query pins an epoch; the result must be a prefix
	// 1..n record-for-record (structural check, in-loop). The exact
	// n-vs-epoch accounting is verified post-hoc against the complete
	// append log: in-flight, a reader may observe a just-published epoch
	// microseconds before the writer records it, so the live log is only
	// a lower bound.
	type observation struct {
		epoch   int64
		entries []seq.Entry
	}
	observations := make([][]observation, readers)
	for r := 0; r < readers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := srv.NewSession(fmt.Sprintf("reader-%d", r))
			deadline := time.Now().Add(duration)
			for time.Now().Before(deadline) {
				select {
				case <-stop:
					return
				default:
				}
				res, err := sess.Query("select(s, v > 0)", seq.NewSpan(1, initial+writers*appends+10))
				if err != nil {
					writerErr <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				if err := expectEntries(res.Entries, len(res.Entries)); err != nil {
					writerErr <- fmt.Errorf("reader %d at epoch %d: %w", r, res.Epoch, err)
					return
				}
				if min := initial + log.countAt(res.Epoch); len(res.Entries) < min {
					writerErr <- fmt.Errorf("reader %d at epoch %d: %d entries, but %d appends already published at that epoch",
						r, res.Epoch, len(res.Entries), min-initial)
					return
				}
				if len(observations[r]) < 64 {
					observations[r] = append(observations[r], observation{res.Epoch, res.Entries})
				}
			}
		}()
	}

	// Give writers time to finish, then release the reorganizer/readers.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case err := <-writerErr:
		close(stop)
		<-done
		t.Fatal(err)
	case <-time.After(duration):
		close(stop)
		<-done
	case <-done:
		close(stop)
	}
	select {
	case err := <-writerErr:
		t.Fatal(err)
	default:
	}

	// Exact epoch accounting, now that the log is complete: every
	// observed result must hold initial + (appends published at or below
	// its pinned epoch) records — no torn reads, no lost writes.
	for r, obs := range observations {
		for _, o := range obs {
			if want := initial + log.countAt(o.epoch); len(o.entries) != want {
				t.Fatalf("reader %d at epoch %d saw %d records, want exactly %d",
					r, o.epoch, len(o.entries), want)
			}
		}
	}

	// Serial re-verification: with all concurrency stopped, re-read each
	// observed epoch's snapshot directly from storage and compare record
	// for record with what the concurrent reader saw. (GC never ran:
	// Serve was not started and the test calls GCOnce only after this.)
	ss, e := srv.lookup("s")
	if e != nil {
		t.Fatal(e)
	}
	checked := 0
	for r, obs := range observations {
		for _, o := range obs {
			snap := ss.v.SnapshotAt(o.epoch)
			if snap == nil {
				t.Fatalf("reader %d: no snapshot at observed epoch %d", r, o.epoch)
			}
			serial, err := seq.Collect(snap.Scan(seq.AllSpan))
			if err != nil {
				t.Fatal(err)
			}
			if len(serial) != len(o.entries) {
				t.Fatalf("reader %d epoch %d: serial re-run has %d records, concurrent saw %d",
					r, o.epoch, len(serial), len(o.entries))
			}
			for i := range serial {
				if serial[i].Pos != o.entries[i].Pos || !serial[i].Rec.Equal(o.entries[i].Rec) {
					t.Fatalf("reader %d epoch %d record %d: serial %s@%d vs concurrent %s@%d",
						r, o.epoch, i, serial[i].Rec, serial[i].Pos, o.entries[i].Rec, o.entries[i].Pos)
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no observations to verify — readers never completed a query")
	}
	t.Logf("verified %d concurrent results against serial snapshot re-reads; final epoch %d, %d page versions",
		checked, srv.Epoch(), srv.PageVersions())

	// After everything quiesces, GC reclaims all but the newest version.
	versions, _, _ := srv.GCOnce()
	if left := ss.v.Versions(); left != 1 {
		t.Fatalf("GC left %d versions (dropped %d)", left, versions)
	}
}

// TestFuzzMatviewEpochIsolation races view materialization, view-backed
// reads, and invalidating writes. The Verify option makes every plan run
// the full planlint check, and the engine additionally re-derives the
// snapshot/* family per read — a reader substituting a view that is
// invalid at its pinned epoch would fail its query.
func TestFuzzMatviewEpochIsolation(t *testing.T) {
	const initial = 200
	srv := testServer(t, Config{Workers: 4, Options: core.Options{Verify: true}}, initial)
	sess := srv.NewSession("setup")
	if _, _, err := sess.Materialize("hot", "select(s, v > 10)", seq.NewSpan(1, initial)); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errc := make(chan error, 16)
	stop := make(chan struct{})

	// Writer: appends invalidate "hot" from their epoch.
	wg.Add(1)
	go func() {
		defer wg.Done()
		pos := int64(initial + 1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := srv.Append("s", seq.Pos(pos), seq.Record{seq.Int(pos)}); err != nil {
				errc <- err
				return
			}
			pos++
			time.Sleep(500 * time.Microsecond)
		}
	}()

	// Re-materializer: keeps registering fresh views under new names;
	// CodeConflict (a write raced the computation) is an expected
	// outcome, any other failure is not.
	conflicts := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := srv.NewSession("materializer")
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("view%d", i)
			_, _, err := s.Materialize(name, "select(s, v > 20)", seq.NewSpan(1, initial))
			if err != nil {
				var se *Error
				if errors.As(err, &se) && se.Code == wire.CodeConflict {
					conflicts++
					continue
				}
				errc <- err
				return
			}
		}
	}()

	// Readers: run the view-shaped query; the planner is free to
	// substitute any registered view that is valid at the pinned epoch.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := srv.NewSession("reader")
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := s.Query("select(s, v > 10)", seq.NewSpan(1, initial))
				if err != nil {
					errc <- err
					return
				}
				// Within [1, initial] the result is epoch-independent:
				// appends land beyond. Exactly initial-10 records.
				if err := expectEntries2(res.Entries, 11, initial); err != nil {
					errc <- fmt.Errorf("epoch %d: %w", res.Epoch, err)
					return
				}
			}
		}()
	}

	time.Sleep(1 * time.Second)
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	// GC with no readers pinned reclaims every invalidated view.
	srv.GCOnce()
	for _, v := range srv.ViewCounters() {
		if v.InvalidFrom != 0 {
			t.Fatalf("GC left invalidated view %+v", v)
		}
	}
}

// expectEntries2 asserts got is exactly v=lo..hi at positions lo..hi.
func expectEntries2(got []seq.Entry, lo, hi int) error {
	if want := hi - lo + 1; len(got) != want {
		return fmt.Errorf("got %d entries, want %d", len(got), want)
	}
	for i, e := range got {
		want := int64(lo + i)
		if int64(e.Pos) != want || e.Rec[0].AsInt() != want {
			return fmt.Errorf("entry %d = %s@%d, want %d@%d", i, e.Rec, e.Pos, want, want)
		}
	}
	return nil
}
