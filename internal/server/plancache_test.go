package server

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/seq"
	"repro/internal/storage"
	"repro/internal/wire"
)

// cacheRead is one read of the plan-cache tests' query stream.
type cacheRead struct {
	seql       string
	start, end int64
}

var cacheReads = []cacheRead{
	{"select(s, v > 50)", 1, 100},
	{"select(s, v > 60)", 1, 100},
	{"select(s, v > 15)", 10, 40},
	{"sum(s, v, 3)", 1, 120},
	{"select(compose(s, t), v > w)", 1, 60},
	{"select(", 1, 10},
}

// readAll runs every read of the stream as a Query and as an Explain and
// renders what a client would see: the entries' wire bytes, the plan
// text, or the error.
func readAll(t *testing.T, sess *Session) []string {
	t.Helper()
	var out []string
	for _, r := range cacheReads {
		span := seq.NewSpan(seq.Pos(r.start), seq.Pos(r.end))
		if res, err := sess.Query(r.seql, span); err != nil {
			out = append(out, fmt.Sprintf("%s: query error %v", r.seql, err))
		} else {
			frame := wire.Encode(&wire.ResultRows{Entries: res.Entries})
			out = append(out, fmt.Sprintf("%s: @%d %x", r.seql, res.Epoch, frame))
		}
		if text, epoch, err := sess.Explain(r.seql, span); err != nil {
			out = append(out, fmt.Sprintf("%s: explain error %v", r.seql, err))
		} else {
			out = append(out, fmt.Sprintf("%s: @%d\n%s", r.seql, epoch, text))
		}
	}
	return out
}

// wSeq is a one-column int sequence w=(i mod 7)·10 at positions 1..n.
func wSeq(n int) *seq.Materialized {
	entries := make([]seq.Entry, n)
	for i := range entries {
		entries[i] = seq.Entry{Pos: seq.Pos(i + 1), Rec: seq.Record{seq.Int(int64((i + 1) % 7 * 10))}}
	}
	return seq.MustMaterialized(seq.MustSchema(seq.Field{Name: "w", Type: seq.TInt}), entries)
}

// TestPlanCacheDifferential runs one query stream, twice per step,
// against a server with the plan cache and one whose every read plans
// fresh, across every kind of change that invalidates a cached plan. The
// two share one calibration, so Analyze moves both cost models alike.
// Entries, Explain text and view counters must be identical throughout.
func TestPlanCacheDifferential(t *testing.T) {
	cached := testServer(t, Config{Options: core.Options{Verify: true}}, 100)
	fresh := testServer(t, Config{Options: core.Options{Verify: true}}, 100)
	fresh.plans = newPlanCache(0, 0)
	fresh.calib = cached.calib
	cs, fs := cached.NewSession("cached"), fresh.NewSession("fresh")

	both := func(step string, f func(srv *Server, sess *Session) error) {
		t.Helper()
		errC, errF := f(cached, cs), f(fresh, fs)
		if fmt.Sprint(errC) != fmt.Sprint(errF) {
			t.Fatalf("%s: cached error %v, fresh error %v", step, errC, errF)
		}
		if errC != nil {
			t.Fatalf("%s: %v", step, errC)
		}
		for pass := 1; pass <= 2; pass++ {
			got, want := readAll(t, cs), readAll(t, fs)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s, pass %d: cached read differs from fresh planning\ncached: %s\nfresh:  %s", step, pass, got[i], want[i])
				}
			}
		}
		if got, want := cached.ViewCounters(), fresh.ViewCounters(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: view counters differ\ncached: %+v\nfresh:  %+v", step, got, want)
		}
	}
	analyze := func(srv *Server, sess *Session) error {
		for i := 0; i < 4; i++ {
			if _, _, err := sess.Analyze("select(s, v > 15)", seq.NewSpan(1, 100)); err != nil {
				return err
			}
		}
		return nil
	}
	option := func(name, value string) func(*Server, *Session) error {
		return func(_ *Server, sess *Session) error { _, err := sess.SetOption(name, value); return err }
	}
	materialize := func(name, seql string, start, end int64) func(*Server, *Session) error {
		return func(_ *Server, sess *Session) error {
			_, _, err := sess.Materialize(name, seql, seq.NewSpan(seq.Pos(start), seq.Pos(end)))
			return err
		}
	}
	appendAt := func(pos int64) func(*Server, *Session) error {
		return func(srv *Server, _ *Session) error {
			_, err := srv.Append("s", seq.Pos(pos), seq.Record{seq.Int(pos)})
			return err
		}
	}

	// literals reads texts of a few shapes with other literals, each on
	// both servers, and checks how the cached one served it: "miss",
	// "hit", or "rebound" (another literal's plan with this one's
	// substituted). Answers and Explain text must be those of planning
	// afresh. s.v holds 1..100 (its statistics are frozen at load).
	literals := func(step string, reads [][2]string) {
		t.Helper()
		span := seq.NewSpan(1, 100)
		for _, r := range reads {
			seql, want := r[0], r[1]
			hits, rebound, misses := cached.plans.hits.Load(), cached.plans.rebound.Load(), cached.plans.misses.Load()
			got, err := cs.Query(seql, span)
			if err != nil {
				t.Fatalf("%s: %s: %v", step, seql, err)
			}
			served := "miss"
			switch {
			case cached.plans.rebound.Load() > rebound:
				served = "rebound"
			case cached.plans.hits.Load() > hits:
				served = "hit"
			case cached.plans.misses.Load() == misses:
				served = "no lookup"
			}
			if served != want {
				t.Errorf("%s: %s: served by %s, want %s", step, seql, served, want)
			}
			wantRes, err := fs.Query(seql, span)
			if err != nil {
				t.Fatalf("%s: %s: fresh: %v", step, seql, err)
			}
			if !reflect.DeepEqual(got.Entries, wantRes.Entries) {
				t.Fatalf("%s: %s: %d entries, fresh planning %d", step, seql, len(got.Entries), len(wantRes.Entries))
			}
			gotText, _, errC := cs.Explain(seql, span)
			wantText, _, errF := fs.Explain(seql, span)
			if errC != nil || errF != nil || gotText != wantText {
				t.Fatalf("%s: %s: Explain differs from fresh planning (%v, %v)\ncached: %s\nfresh:  %s", step, seql, errC, errF, gotText, wantText)
			}
		}
	}

	both("start", func(*Server, *Session) error { return nil })
	both("append", appendAt(101))
	literals("literals", [][2]string{
		// Below the column's range every "v >" estimate is 1, above it 0:
		// the plan does not depend on which literal.
		{"select(s, v > 0.5)", "miss"},
		{"select(s, v > 0.25)", "rebound"},
		{"select(s, v > 200)", "miss"},
		{"select(s, v > 300)", "rebound"},
		// Inside the range the estimate moves with the literal.
		{"select(s, v > 50)", "miss"},
		{"select(s, v > 60)", "miss"},
		{"select(s, v > 60)", "hit"},
		{"select(s, v > 400)", "miss"},
		// An int and a float literal are different shapes; a shape may
		// mix them.
		{"select(s, v > 200.5)", "miss"},
		{"select(s, v > 300.5)", "rebound"},
		{"select(s, v > 0.5 and v < 500)", "miss"},
		{"select(s, v > 0.25 and v < 700)", "rebound"},
		{"select(s, v > 0.25 and v < 50)", "miss"},
		// A minus before a number is part of the literal, so a negative
		// literal takes a slot like any other.
		{"select(s, v > -5)", "miss"},
		{"select(s, v > -7)", "rebound"},
		// Equality estimates read the statistics, not the literal.
		{"select(s, v = 5)", "miss"},
		{"select(s, v = 7)", "rebound"},
		// Literals the estimator never reads.
		{"project(s, v + 1 as w)", "miss"},
		{"project(s, v + 5 as w)", "rebound"},
		{"select(compose(s, s as u), s.v > u.v + 1)", "miss"},
		{"select(compose(s, s as u), s.v > u.v + 2)", "rebound"},
		// Folding consumes a slot: its plan serves only its own literals.
		{"select(s, v > 200 + 2)", "miss"},
		{"select(s, v > 300 + 5)", "miss"},
		{"select(s, v > 300 + 5)", "hit"},
	})
	both("materialize hot", materialize("hot", "select(s, v > 50)", 1, 100))
	// View matching compares literals: with a view on s no plan of a
	// query over s serves another literal.
	literals("literals with a view on the base", [][2]string{
		{"select(s, v > 0.5)", "miss"},
		{"select(s, v > 0.25)", "miss"},
		{"select(s, v > 0.25)", "hit"},
	})
	both("parallelism 1", option("parallelism", "1"))
	both("views off", option("views", "off"))
	both("views on", option("views", "on"))
	both("analyze", analyze)
	both("analyze again", analyze)
	both("create t", func(srv *Server, _ *Session) error { return srv.CreateSequence("t", wSeq(80), storage.KindDense) })
	both("materialize wide", materialize("wide", "sum(s, v, 3)", 1, 200))
	both("append into wide", appendAt(102))
	both("drop hot", func(srv *Server, _ *Session) error { return srv.DropView("hot") })
	both("gc", func(srv *Server, _ *Session) error { srv.GCOnce(); return nil })
	both("reorganize", func(srv *Server, _ *Session) error {
		_, err := srv.Reorganize("s", storage.KindDense)
		return err
	})
	both("drop t", func(srv *Server, _ *Session) error { return srv.DropSequence("t") })
	// A view that matches a read's block but covers no prefix of its span
	// misses on every read, a read served from the plan cache included.
	for _, sess := range []*Session{cs, fs} {
		if err := materialize("narrow", "select(s, v > 50)", 70, 90)(nil, sess); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := sess.Query("select(s, v > 50)", seq.NewSpan(1, 100)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, srv := range map[string]*Server{"cached": cached, "fresh": fresh} {
		misses := int64(-1)
		for _, v := range srv.ViewCounters() {
			if v.Name == "narrow" {
				misses = v.Misses
			}
		}
		if misses != 3 {
			t.Fatalf("%s: view narrow missed %d times in 3 reads it does not cover", name, misses)
		}
	}
	both("materialize narrow", func(*Server, *Session) error { return nil })
	both("reopt on", option("reopt", "on"))

	if h := cached.plans.hits.Load(); h == 0 {
		t.Fatal("the cached server never hit its plan cache")
	}
	if h := fresh.plans.hits.Load(); h != 0 {
		t.Fatalf("the fresh server hit its plan cache %d times", h)
	}
}

// TestPlanCacheInvalidation asserts, per source of change, that the read
// after it plans again, and that an unchanged repeat does not.
func TestPlanCacheInvalidation(t *testing.T) {
	srv := testServer(t, Config{}, 100)
	sess := srv.NewSession("a")
	other := srv.NewSession("b")
	const q = "select(s, v > 50)"
	span := seq.NewSpan(1, 100)
	// planned reports whether a Query of q planned, rather than hit.
	planned := func(sess *Session) bool {
		t.Helper()
		misses := srv.plans.misses.Load()
		if _, err := sess.Query(q, span); err != nil {
			t.Fatal(err)
		}
		return srv.plans.misses.Load() > misses
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		source string
		change func()
	}{
		{"append", func() { _, err := srv.Append("s", 101, seq.Record{seq.Int(101)}); must(err) }},
		{"reorganize", func() { _, err := srv.Reorganize("s", storage.KindSparse); must(err) }},
		{"materialize", func() { _, _, err := other.Materialize("hot", "select(s, v > 40)", span); must(err) }},
		{"drop view", func() { must(srv.DropView("hot")) }},
		{"set option", func() { _, err := sess.SetOption("parallelism", "1"); must(err) }},
		{"analyze", func() { _, _, err := other.Analyze("select(s, v > 1)", span); must(err) }},
		{"create sequence", func() { must(srv.CreateSequence("t", wSeq(10), storage.KindDense)) }},
		{"drop sequence", func() { must(srv.DropSequence("t")) }},
	} {
		planned(sess)
		if planned(sess) {
			t.Fatalf("before %s: an unchanged repeat planned again", c.source)
		}
		c.change()
		if !planned(sess) {
			t.Errorf("%s: the next read hit a plan cached before it", c.source)
		}
	}

	// Sessions with equal options share one entry; a SetOption on one
	// moves it to another key and retires nothing of the other's.
	planned(other)
	if planned(other) {
		t.Fatal("other session: an unchanged repeat planned again")
	}
	if _, err := sess.SetOption("parallelism", "0"); err != nil {
		t.Fatal(err)
	}
	if planned(sess) {
		t.Error("a session with the options of another planned the other's text again")
	}
	if _, err := sess.SetOption("parallelism", "2"); err != nil {
		t.Fatal(err)
	}
	if !planned(sess) {
		t.Error("a session read a plan made under other options")
	}
	if planned(other) {
		t.Error("a SetOption on one session retired another session's plan")
	}

	// Errors are not cached, and neither are reads of a root bound earlier.
	entries := srv.plans.len()
	if _, err := sess.Query("select(", span); err == nil {
		t.Fatal("parse error accepted")
	}
	root, ok := srv.Catalog().Resolve("s")
	if !ok {
		t.Fatal("s not in the catalog")
	}
	if err := sess.Plan(root, span, func(*core.Result) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := srv.plans.len(); got != entries {
		t.Errorf("an error or a bound root left %d entries, want %d", got, entries)
	}

	// GC drops the plans pinned below min-live.
	if _, err := srv.Append("s", 102, seq.Record{seq.Int(102)}); err != nil {
		t.Fatal(err)
	}
	srv.GCOnce()
	if got := srv.plans.len(); got != 0 {
		t.Errorf("GC left %d plans of superseded epochs", got)
	}
}

// TestPlanCacheSharing: sessions with equal options share one plan per
// shape, and a read with another literal whose estimates do not move is a
// rebound hit; sessions that differ in an option share nothing.
func TestPlanCacheSharing(t *testing.T) {
	srv := testServer(t, Config{}, 100)
	span := seq.NewSpan(1, 100)
	read := func(sess *Session, seql string) {
		t.Helper()
		res, err := sess.Query(seql, span)
		if err != nil {
			t.Fatal(err)
		}
		if err := expectEntries(res.Entries, 100); err != nil {
			t.Fatalf("%s: %v", seql, err)
		}
	}
	// Every literal is distinct and below s.v's minimum, 1.
	a, b := srv.NewSession("a"), srv.NewSession("b")
	for i := 1; i <= 200; i++ {
		sess := a
		if i > 100 {
			sess = b
		}
		read(sess, fmt.Sprintf("select(s, v > 0.%04d)", i))
	}
	if h, r, m, n := srv.plans.hits.Load(), srv.plans.rebound.Load(), srv.plans.misses.Load(), srv.plans.len(); h != 199 || r != 199 || m != 1 || n != 1 {
		t.Errorf("two sessions, 200 literals: %d hits (%d rebound), %d misses, %d entries; want 199 (199), 1, 1", h, r, m, n)
	}

	c, d := srv.NewSession("c"), srv.NewSession("d")
	if _, err := c.SetOption("parallelism", "1"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.SetOption("parallelism", "2"); err != nil {
		t.Fatal(err)
	}
	hits := srv.plans.hits.Load()
	read(c, "select(s, v > 0.5)")
	read(d, "select(s, v > 0.5)")
	if h, n := srv.plans.hits.Load()-hits, srv.plans.len(); h != 0 || n != 3 {
		t.Errorf("sessions differing in parallelism: %d hits, %d entries; want 0, 3", h, n)
	}

	// A session made with options the server's sessions lack shares
	// nothing, even once SetOption agrees.
	opts := srv.cfg.Options
	opts.DisableSpanPropagation = true
	e := srv.NewSessionWith("e", opts)
	hits = srv.plans.hits.Load()
	read(e, "select(s, v > 0.5)")
	if h := srv.plans.hits.Load() - hits; h != 0 {
		t.Errorf("a session with other base options hit %d plans of the server's sessions", h)
	}
}

// TestPlanCacheBound: each segment holds at most its bound; a plan read
// again is protected, and a plan read once is evicted first.
func TestPlanCacheBound(t *testing.T) {
	c := newPlanCache(1, 2)
	key := func(s string) planKey { return planKey{shape: s, span: seq.NewSpan(1, 2)} }
	has := func(s string) bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		_, ok := c.entries[key(s)]
		return ok
	}
	c.put(key("a"), nil, 1, 0, nil)
	c.put(key("b"), nil, 1, 0, nil) // evicts a from probation
	if has("a") || !has("b") {
		t.Fatal("probation kept more than its bound")
	}
	for _, k := range []string{"b", "c", "d"} {
		if k != "b" {
			c.put(key(k), nil, 1, 0, nil)
		}
		if _, _, ok := c.get(key(k), nil, 1, 0); !ok { // protects k
			t.Fatalf("%s missing", k)
		}
	}
	// Protecting d demoted b, the least recently used protected plan, to
	// probation, and a plan read once evicts it there.
	if !has("b") || c.len() != 3 {
		t.Fatalf("protecting d: b kept %v, len %d; want b demoted, len 3", has("b"), c.len())
	}
	c.put(key("e"), nil, 1, 0, nil)
	if has("b") || !has("c") || !has("d") || !has("e") || c.len() != 3 {
		t.Fatalf("after e: b %v c %v d %v e %v, len %d", has("b"), has("c"), has("d"), has("e"), c.len())
	}
	// A plan of a key planned before, at an older epoch, is protected; a
	// stream of plans read once never displaces a protected plan.
	c.put(key("e"), nil, 2, 0, nil)
	for i := 0; i < 10; i++ {
		c.put(key(fmt.Sprint("once", i)), nil, 1, 0, nil)
	}
	if has("c") || !has("d") || !has("e") || c.len() != 3 {
		t.Fatalf("after plans read once: c %v d %v e %v, len %d; want d and e protected", has("c"), has("d"), has("e"), c.len())
	}
	if _, _, ok := c.get(key("d"), nil, 2, 0); ok {
		t.Error("d hit at another epoch")
	}
	if _, _, ok := c.get(key("d"), nil, 1, 1); ok {
		t.Error("d hit at another plan generation")
	}
	if hits, misses := c.hits.Load(), c.misses.Load(); hits != 3 || misses != 2 {
		t.Errorf("hits, misses = %d, %d, want 3, 2", hits, misses)
	}
	c.dropBelow(3)
	if c.len() != 0 {
		t.Errorf("dropBelow left %d plans", c.len())
	}
}

// TestSetOptionRejectsTrailingGarbage: a numeric option value must be a
// number as a whole.
func TestSetOptionRejectsTrailingGarbage(t *testing.T) {
	srv := testServer(t, Config{}, 10)
	for _, c := range []struct {
		name, value, want string // want "" means rejected
	}{
		{"parallelism", "2", "parallelism = 2"},
		{"parallelism", "0", "parallelism = 0"},
		{"parallelism", "2x", ""},
		{"parallelism", " 2", ""},
		{"parallelism", "-1", ""},
		{"parallelism", "1.5", ""},
		{"parallelism", "", ""},
		{"reopt interval", "64", "reopt interval = 64"},
		{"reopt interval", "64k", ""},
		{"reopt interval", "0", ""},
		{"reopt interval", "1e3", ""},
		{"reopt threshold", "0.5", "reopt threshold = 0.5"},
		{"reopt threshold", "0", "reopt threshold = 0"},
		{"reopt threshold", "2e-1", "reopt threshold = 0.2"},
		{"reopt threshold", "0.5junk", ""},
		{"reopt threshold", "-0.1", ""},
		{"reopt threshold", "NaN", ""},
		{"reopt threshold", "", ""},
	} {
		sess := srv.NewSession("opts")
		note, err := sess.SetOption(c.name, c.value)
		var se *Error
		switch {
		case c.want == "" && err == nil:
			t.Errorf("%s %q accepted: %s", c.name, c.value, note)
		case c.want == "" && (!errors.As(err, &se) || se.Code != wire.CodeOption):
			t.Errorf("%s %q: error %v, want an option error", c.name, c.value, err)
		case c.want != "" && (err != nil || note != c.want):
			t.Errorf("%s %q = %q, %v; want %q", c.name, c.value, note, err, c.want)
		}
	}
}

// TestPlanCacheConcurrentReads races repeated-text reads, which share
// cached plans within an epoch and across a shared session, against
// appends, view registration and drop, and Analyze. Every result must be
// exactly the prefix its pinned epoch published. Run with -race.
func TestPlanCacheConcurrentReads(t *testing.T) {
	const (
		initial = 100
		appends = 200
		readers = 4
	)
	srv := testServer(t, Config{Workers: 4, Options: core.Options{Verify: true}}, initial)
	log := &appendLog{}
	// The shared session replans at every checkpoint, so concurrent runs
	// of one cached plan splice tails too.
	shared := srv.NewSession("shared")
	for _, opt := range [][2]string{{"reopt", "on"}, {"reopt threshold", "0"}, {"reopt interval", "32"}} {
		if _, err := shared.SetOption(opt[0], opt[1]); err != nil {
			t.Fatal(err)
		}
	}
	errs := make(chan error, readers+2)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		sess := srv.NewSession("writer")
		for i := 1; i <= appends; i++ {
			pos := int64(initial + i)
			e, err := srv.Append("s", seq.Pos(pos), seq.Record{seq.Int(pos)})
			if err != nil {
				errs <- err
				return
			}
			log.add(e)
			switch i % 50 {
			case 10:
				if _, _, err := sess.Materialize("hot", "select(s, v > 0)", seq.NewSpan(1, initial)); err != nil && !isConflict(err) {
					errs <- err
					return
				}
			case 30:
				_ = srv.DropView("hot") // absent when its Materialize conflicted
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	for r := 0; r < readers; r++ {
		sess := shared
		if r%2 == 0 {
			sess = srv.NewSession(fmt.Sprintf("reader-%d", r))
		}
		wg.Add(1)
		go func(r int, sess *Session) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				span := seq.NewSpan(1, initial+appends)
				if n%3 == 1 {
					span = seq.NewSpan(1, initial)
				}
				res, err := sess.Query("select(s, v > 0)", span)
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				want := initial + log.countAt(res.Epoch)
				if n%3 == 1 {
					want = initial
				}
				// The log may lag the epoch a reader pinned, never lead it.
				if err := expectEntries(res.Entries, len(res.Entries)); err != nil || len(res.Entries) < want {
					errs <- fmt.Errorf("reader %d at epoch %d: %d entries, want ≥ %d (%v)", r, res.Epoch, len(res.Entries), want, err)
					return
				}
				if n%17 == 0 {
					if _, _, err := sess.Analyze("select(s, v > 50)", seq.NewSpan(1, initial)); err != nil {
						errs <- fmt.Errorf("reader %d analyze: %w", r, err)
						return
					}
				}
			}
		}(r, sess)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if srv.plans.hits.Load() == 0 {
		t.Fatal("no read hit the plan cache")
	}
	srv.GCOnce()
	for _, el := range srv.plans.entries {
		if e := el.Value.(*planEntry); e.epoch != srv.Epoch() {
			t.Errorf("after GC the cache holds a plan of epoch %d, current %d", e.epoch, srv.Epoch())
		}
	}
}

func isConflict(err error) bool {
	var se *Error
	return errors.As(err, &se) && se.Code == wire.CodeConflict
}
