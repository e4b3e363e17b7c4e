package seqproc

import (
	"flag"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/matview"
	"repro/internal/planlint"
	"repro/internal/testgen"
	"repro/internal/wire"
)

var ivmSchedules = flag.Int("ivm.schedules", 500, "number of random append/reorganize schedules for the IVM differential fuzz harness")

// TestIVMDifferentialFuzz is the incremental-view-maintenance fuzz
// harness: each schedule builds a DB (in-memory or disk-backed), registers
// a batch of standing views over random query shapes, then drives a random
// sequence of appends and reorganizes through it. After every mutation the
// maintenance reports must pass the planlint ivm/* verifier, and the
// standing queries — answered through whatever mix of stitched, shrunken,
// and recomputed views the maintenance left behind — must agree with the
// reference interpreter record for record. So must a wire subscriber's
// copy of a few standing queries, built from the deltas alone.
func TestIVMDifferentialFuzz(t *testing.T) {
	var stitches, shrinks, invalidates, noops, substituted, diskSchedules, heavySchedules int
	var mutations, subChecks int
	done := 0
	for seed := int64(1); done < *ivmSchedules; seed++ {
		rng := rand.New(rand.NewSource(seed * 7919))
		viewCount := 10
		switch {
		case seed%3 == 0:
			viewCount = 0
		case seed%25 == 7:
			viewCount = 100
			heavySchedules++
		}
		disk := seed%5 == 2
		if disk {
			diskSchedules++
		}
		parallelism := 1
		if seed%2 == 0 {
			parallelism = 3
		}
		st := runIVMSchedule(t, rng, seed, viewCount, disk, parallelism)
		stitches += st.stitches
		shrinks += st.shrinks
		invalidates += st.invalidates
		noops += st.noops
		substituted += st.substituted
		mutations += st.mutations
		subChecks += st.subChecks
		done++
	}
	t.Logf("ran %d schedules (%d disk-backed, %d with 100 views): %d stitches, %d shrinks, %d invalidates, %d no-ops, %d view-served queries, %d subscriber checks over %d mutations",
		done, diskSchedules, heavySchedules, stitches, shrinks, invalidates, noops, substituted, subChecks, mutations)
	if subChecks < mutations {
		t.Fatalf("%d subscriber checks over %d mutations; want at least one per mutation", subChecks, mutations)
	}
	if stitches == 0 {
		t.Fatal("no view was ever stitched; the IVM stitch path is dead")
	}
	if shrinks == 0 {
		t.Fatal("no view was ever shrunk; the partial-span fallback path is dead")
	}
	if invalidates == 0 {
		t.Fatal("no view was ever invalidated; the last-resort path is dead")
	}
	if noops == 0 {
		t.Fatal("no maintenance was ever a no-op; the halo analysis never excluded a view")
	}
	if substituted == 0 {
		t.Fatal("no maintained view ever answered a query; the differential harness is dead")
	}
	if diskSchedules == 0 || heavySchedules == 0 {
		t.Fatalf("schedule mix degenerate: %d disk, %d heavy", diskSchedules, heavySchedules)
	}
}

type ivmStats struct {
	stitches, shrinks, invalidates, noops, substituted int
	mutations, subChecks                               int
}

// standing pairs a registered view with the query text and span its
// correctness is checked over.
type standing struct {
	name string
	text string
	span Span
}

func runIVMSchedule(t *testing.T, rng *rand.Rand, seed int64, viewCount int, disk bool, parallelism int) ivmStats {
	t.Helper()
	var st ivmStats
	var db *DB
	if disk {
		var err error
		db, err = Open(t.TempDir(), nil)
		if err != nil {
			t.Fatalf("seed %d: open disk db: %v", seed, err)
		}
		defer db.Close()
	} else {
		db = New()
	}
	db.SetOptions(Options{Parallelism: parallelism})

	// Two sparse bases with distinct column names so composes are
	// unambiguous.
	occupied := map[string]map[Pos]bool{"b": {}, "c": {}}
	for _, base := range []struct{ name, col string }{{"b", "v"}, {"c", "w"}} {
		var entries []Entry
		for p := Pos(0); p <= 24; p++ {
			if rng.Float64() < 0.55 {
				entries = append(entries, Entry{Pos: p, Rec: Record{Float(float64(rng.Intn(40)))}})
				occupied[base.name][p] = true
			}
		}
		if len(entries) == 0 {
			entries = append(entries, Entry{Pos: 1, Rec: Record{Float(1)}})
			occupied[base.name][1] = true
		}
		data, err := NewData(MustSchema(Field{Name: base.col, Type: TFloat}), entries)
		if err != nil {
			t.Fatalf("seed %d: base data: %v", seed, err)
		}
		if err := db.CreateSequence(base.name, data, Sparse); err != nil {
			t.Fatalf("seed %d: create %s: %v", seed, base.name, err)
		}
	}

	// Register the standing views. Generation retries until a shape both
	// parses and registers (universe-sensitive blocks are refused, which
	// is part of what this harness locks in).
	var views []standing
	for i := 0; i < viewCount; i++ {
		for attempt := 0; attempt < 30; attempt++ {
			text, _ := randIVMQuery(rng, 2+rng.Intn(2))
			lo := Pos(rng.Intn(20)) - 6
			span := NewSpan(lo, lo+Pos(8+rng.Intn(30)))
			name := fmt.Sprintf("v%d", i)
			if _, err := db.Query(text); err != nil {
				continue
			}
			if _, err := db.Materialize(name, text, span); err != nil {
				continue
			}
			views = append(views, standing{name: name, text: text, span: span})
			break
		}
	}

	// checkViews cross-checks standing queries against the reference
	// interpreter over the current data.
	checkViews := func(opIdx int, sample int) {
		idx := rng.Perm(len(views))
		if sample < len(idx) {
			idx = idx[:sample]
		}
		for _, i := range idx {
			v := views[i]
			q, err := db.Query(v.text)
			if err != nil {
				t.Fatalf("seed %d op %d: reparse %q: %v", seed, opIdx, v.text, err)
			}
			got, err := q.Run(v.span)
			if err != nil {
				t.Fatalf("seed %d op %d: run %q: %v", seed, opIdx, v.text, err)
			}
			want, err := algebra.EvalRange(q.Node(), v.span)
			if err != nil {
				t.Fatalf("seed %d op %d: reference for %q: %v", seed, opIdx, v.text, err)
			}
			if !testgen.EntriesApproxEqual(got.Entries(), want) {
				t.Fatalf("seed %d op %d: standing query disagrees with the reference after maintenance\nquery: %s\nspan: %v\nplan:\n%s\ngot  %v\nwant %v",
					seed, opIdx, v.text, v.span, got.Plan(), got.Entries(), want)
			}
			for _, s := range got.opt.Substitutions {
				if s.Stream || s.Probed {
					st.substituted++
				}
			}
		}
	}

	sub := openSubscriber(t, db, seed, views)
	defer sub.close()
	checkSubs := func(opIdx int) {
		sub.sync(t, db)
		for i, s := range sub.queries {
			q, err := db.Query(s.text)
			if err != nil {
				t.Fatalf("seed %d op %d: reparse %q: %v", seed, opIdx, s.text, err)
			}
			want, err := algebra.EvalRange(q.Node(), s.span)
			if err != nil {
				t.Fatalf("seed %d op %d: reference for %q: %v", seed, opIdx, s.text, err)
			}
			if got := sub.entries(i); !testgen.EntriesApproxEqual(got, want) {
				t.Fatalf("seed %d op %d: subscriber's copy disagrees with the reference\nquery: %s\nspan: %v\ngot  %v\nwant %v",
					seed, opIdx, s.text, s.span, got, want)
			}
			st.subChecks++
		}
	}
	checkSubs(-1)

	nOps := 4 + rng.Intn(5)
	for op := 0; op < nOps; op++ {
		base := "b"
		if rng.Intn(2) == 1 {
			base = "c"
		}
		if rng.Float64() < 0.8 {
			// Append at a fresh position, biased to the occupied
			// neighborhood so halos actually hit view spans.
			var pos Pos
			ok := false
			for tries := 0; tries < 50; tries++ {
				pos = Pos(rng.Intn(44)) - 4
				if !occupied[base][pos] {
					ok = true
					break
				}
			}
			if !ok {
				continue
			}
			if err := db.Append(base, pos, Record{Float(float64(rng.Intn(40)))}); err != nil {
				// Dense stores refuse out-of-span appends; the op is a no-op.
				continue
			}
			occupied[base][pos] = true
		} else {
			kind := Sparse
			if rng.Intn(2) == 0 {
				kind = Dense
			}
			if err := db.Reorganize(base, kind); err != nil {
				t.Fatalf("seed %d op %d: reorganize %s: %v", seed, op, base, err)
			}
		}

		reports := db.TakeMaintenanceReports()
		for _, rep := range reports {
			switch rep.Action {
			case matview.MaintainStitch:
				st.stitches++
			case matview.MaintainShrink:
				st.shrinks++
			case matview.MaintainInvalidate:
				st.invalidates++
			case matview.MaintainNone:
				st.noops++
			}
		}
		if issues := db.srv.VerifyMaintenance(reports); len(issues) != 0 {
			t.Fatalf("seed %d op %d: maintenance violates ivm/* invariants:\n%v",
				seed, op, planlint.Error(issues))
		}
		// Spot-check a few standing queries after every mutation, and
		// every subscription.
		checkViews(op, 4)
		checkSubs(op)
		st.mutations++
	}
	// Full sweep at the end of the schedule.
	checkViews(nOps, len(views))
	return st
}

// randIVMQuery builds a random SEQL query over bases b (column v) and c
// (column w), returning the text and the name of a numeric column valid
// in its output schema. Shapes that fail to parse are discarded by the
// caller, so the generator only has to be mostly right.
func randIVMQuery(rng *rand.Rand, depth int) (string, string) {
	if depth <= 0 {
		if rng.Intn(2) == 0 {
			return "b", "v"
		}
		return "c", "w"
	}
	in, col := randIVMQuery(rng, depth-1)
	switch rng.Intn(9) {
	case 0:
		return fmt.Sprintf("select(%s, %s > %d.0)", in, col, rng.Intn(30)), col
	case 1:
		return fmt.Sprintf("offset(%s, %d)", in, rng.Intn(7)-3), col
	case 2:
		k := []int64{-2, -1, 1, 2}[rng.Intn(4)]
		return fmt.Sprintf("voffset(%s, %d)", in, k), col
	case 3:
		return fmt.Sprintf("sum(%s, %s, %d)", in, col, 1+rng.Intn(4)), "sum"
	case 4:
		return fmt.Sprintf("avg(%s, %s, %d, %d)", in, col, -rng.Intn(3)-1, rng.Intn(2)), "avg"
	case 5:
		return fmt.Sprintf("rsum(%s, %s)", in, col), "sum"
	case 6:
		return fmt.Sprintf("collapse(%s, avg(%s), %d)", in, col, 2+rng.Intn(2)), "avg"
	case 7:
		return fmt.Sprintf("expand(%s, %d)", in, 2+rng.Intn(2)), col
	default:
		return fmt.Sprintf("select(compose(b as l, c as r), l.v > r.w)"), "v"
	}
}

// subscriber is a wire client (DB.Connect) holding standing queries over
// a schedule's bases, with a reader goroutine applying every delta to
// the client's copy. A sentinel subscription on a base no query reads
// marks the end of a write's deltas: deltas arrive in write order, so
// once the sentinel's delta of a later write is in, every delta of the
// earlier writes has been applied.
type subscriber struct {
	conn     net.Conn
	queries  []standing
	ids      []uint64
	copies   map[uint64]map[Pos]Record
	sentinel uint64
	next     Pos // the next sentinel append position
	marks    chan int64
	done     chan error
}

// openSubscriber subscribes to the first few view texts of a schedule,
// or to random shapes when it registered none, and to one non-monotone
// block.
func openSubscriber(t *testing.T, db *DB, seed int64, views []standing) *subscriber {
	t.Helper()
	conn := db.Connect()
	c, err := wire.NewClient(conn, "ivm-fuzz")
	if err != nil {
		t.Fatalf("seed %d: connect: %v", seed, err)
	}
	s := &subscriber{conn: conn, copies: map[uint64]map[Pos]Record{}, next: 1,
		marks: make(chan int64, 1), done: make(chan error, 1)}
	subscribe := func(q standing) bool {
		ack, err := c.Subscribe(q.text, int64(q.span.Start), int64(q.span.End))
		if err != nil {
			return false
		}
		s.queries = append(s.queries, q)
		s.ids = append(s.ids, ack.SubID)
		s.copies[ack.SubID] = map[Pos]Record{}
		return true
	}
	for _, v := range views[:min(3, len(views))] {
		subscribe(v)
	}
	rng := rand.New(rand.NewSource(seed))
	for attempt := 0; len(s.queries) == 0 && attempt < 30; attempt++ {
		text, _ := randIVMQuery(rng, 2+rng.Intn(2))
		lo := Pos(rng.Intn(20)) - 6
		subscribe(standing{text: text, span: NewSpan(lo, lo+Pos(8+rng.Intn(30)))})
	}
	if len(s.queries) == 0 && !subscribe(standing{text: "b", span: NewSpan(-10, 50)}) {
		t.Fatalf("seed %d: no standing query subscribes", seed)
	}
	// A select over a trailing avg is not monotone in its base: an
	// append of a low value pulls the averages after it under the
	// threshold, so the write's delta takes held records away and often
	// leaves its region empty. Every schedule holds one such block.
	lowPull := standing{text: fmt.Sprintf("select(avg(b, v, %d, 0), avg > %d.0)", -1-rng.Intn(3), 15+rng.Intn(15)),
		span: NewSpan(-6, 44)}
	if !subscribe(lowPull) {
		t.Fatalf("seed %d: subscribe %q failed", seed, lowPull.text)
	}

	data, err := NewData(MustSchema(Field{Name: "x", Type: TFloat}), nil)
	if err != nil {
		t.Fatalf("seed %d: sentinel data: %v", seed, err)
	}
	if err := db.CreateSequence("z", data, Sparse); err != nil {
		t.Fatalf("seed %d: create sentinel: %v", seed, err)
	}
	ack, err := c.Subscribe("z", 1, 1<<20)
	if err != nil {
		t.Fatalf("seed %d: subscribe sentinel: %v", seed, err)
	}
	s.sentinel = ack.SubID
	go func() {
		for {
			d, err := c.ReadDelta()
			if err != nil {
				s.done <- err
				return
			}
			if d.SubID == s.sentinel {
				s.marks <- d.Epoch
				continue
			}
			cp := s.copies[d.SubID]
			for p := Pos(d.Start); p <= Pos(d.End); p++ {
				delete(cp, p)
			}
			for _, e := range d.Entries {
				cp[e.Pos] = e.Rec
			}
		}
	}()
	<-s.marks // the sentinel's initial content
	return s
}

// sync returns once every delta of the writes so far has been applied.
func (s *subscriber) sync(t *testing.T, db *DB) {
	t.Helper()
	if err := db.Append("z", s.next, Record{Float(0)}); err != nil {
		t.Fatalf("sentinel append: %v", err)
	}
	s.next++
	select {
	case <-s.marks:
	case err := <-s.done:
		t.Fatalf("subscriber connection failed: %v", err)
	case <-time.After(time.Minute):
		t.Fatal("the sentinel subscription got no delta for its append")
	}
}

// entries is the client's copy of the i-th standing query.
func (s *subscriber) entries(i int) []Entry {
	var out []Entry
	for p, rec := range s.copies[s.ids[i]] {
		out = append(out, Entry{Pos: p, Rec: rec})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Pos < out[b].Pos })
	return out
}

// close ends the connection and waits for the reader goroutine.
func (s *subscriber) close() {
	s.conn.Close()
	<-s.done
}
