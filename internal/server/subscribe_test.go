package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/seq"
	"repro/internal/storage"
	"repro/internal/wire"
)

// queuedDelta returns the next delta the client has already received.
// The deltas these tests wait for are framed before the end of a turn on
// the subscriber's connection (a write's Ack, or any later turn), so an
// empty queue means the server never sent one: the test fails at once
// instead of blocking in ReadDelta.
func queuedDelta(t *testing.T, c *wire.Client) *wire.Delta {
	t.Helper()
	if c.PendingDeltas() == 0 {
		t.Fatal("no delta queued: the server sent none")
	}
	d, err := c.ReadDelta()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSubscribeLifecycle drives one standing query through its whole life
// on a single connection: ack + initial snapshot, a delta per append
// (including an empty replacement when the new record fails the
// predicate), and silence after unsubscribe.
func TestSubscribeLifecycle(t *testing.T) {
	srv := testServer(t, Config{Options: core.Options{Verify: true}}, 10)
	addr := startTCP(t, srv)

	c, err := wire.Dial(addr, "test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ack, err := c.Subscribe("select(s, v > 5)", 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if ack.SubID != 1 || ack.Epoch != 0 {
		t.Fatalf("ack = %+v, want SubID 1 epoch 0", ack)
	}
	if len(ack.Fields) != 1 || ack.Fields[0].Name != "v" {
		t.Fatalf("ack fields = %v, want [v]", ack.Fields)
	}

	// Initial snapshot: the full span, holding exactly the matches.
	d := queuedDelta(t, c)
	if d.SubID != 1 || d.Epoch != 0 || d.Start != 1 || d.End != 100 {
		t.Fatalf("initial delta header = %+v", d)
	}
	if len(d.Entries) != 5 || d.Entries[0].Pos != 6 || d.Entries[4].Pos != 10 {
		t.Fatalf("initial delta entries = %v, want positions 6..10", d.Entries)
	}

	// A matching append: one delta replacing exactly the written position.
	// The delta is framed before the append's own Ack, so it is already
	// queued when Append returns.
	if _, err := c.Append("s", 11, seq.Record{seq.Int(11)}); err != nil {
		t.Fatal(err)
	}
	if c.PendingDeltas() != 1 {
		t.Fatalf("pending deltas after append = %d, want 1", c.PendingDeltas())
	}
	d = queuedDelta(t, c)
	if d.SubID != 1 || d.Epoch != 1 || d.Start != 11 || d.End != 11 {
		t.Fatalf("append delta header = %+v", d)
	}
	if len(d.Entries) != 1 || d.Entries[0].Pos != 11 || d.Entries[0].Rec[0] != seq.Int(11) {
		t.Fatalf("append delta entries = %v", d.Entries)
	}

	// A non-matching append still produces a delta — an empty region
	// replacement, which is how a standing select reports "nothing here".
	if _, err := c.Append("s", 12, seq.Record{seq.Int(-1)}); err != nil {
		t.Fatal(err)
	}
	d = queuedDelta(t, c)
	if d.Epoch != 2 || d.Start != 12 || d.End != 12 || len(d.Entries) != 0 {
		t.Fatalf("non-matching append delta = %+v, want empty [12,12]", d)
	}

	// After unsubscribe, appends are silent for this connection.
	if txt, err := c.Unsubscribe(1); err != nil || txt != "unsubscribed 1" {
		t.Fatalf("unsubscribe = %q, %v", txt, err)
	}
	if _, err := c.Append("s", 13, seq.Record{seq.Int(13)}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("s", 1, 100); err != nil {
		t.Fatal(err)
	}
	if n := c.PendingDeltas(); n != 0 {
		t.Fatalf("pending deltas after unsubscribe = %d, want 0", n)
	}

	var se *wire.ServerError
	if _, err := c.Unsubscribe(1); !errors.As(err, &se) || se.Code != wire.CodeNotFound {
		t.Fatalf("double unsubscribe error = %v, want code %q", err, wire.CodeNotFound)
	}
}

// TestSubscribeRefusals checks the queries seqd must turn away: unbounded
// spans, universe-sensitive plans, and queries that do not bind.
func TestSubscribeRefusals(t *testing.T) {
	srv := testServer(t, Config{Options: core.Options{Verify: true}}, 10)
	addr := startTCP(t, srv)

	c, err := wire.Dial(addr, "test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cases := []struct {
		name, seql string
		start, end int64
		code       wire.ErrorCode
	}{
		{"unbounded span", "s", 1, int64(seq.MaxPos), wire.CodePlan},
		{"universe-sensitive", "voffset(voffset(s, 1), 1)", 1, 100, wire.CodePlan},
		{"unknown base", "select(nosuch, v > 0)", 1, 100, wire.CodeParse},
	}
	for _, tc := range cases {
		var se *wire.ServerError
		_, err := c.Subscribe(tc.seql, tc.start, tc.end)
		if !errors.As(err, &se) || se.Code != tc.code {
			t.Errorf("%s: error = %v, want code %q", tc.name, err, tc.code)
		}
	}
	// Refused subscriptions must not leak ids or deltas.
	ack, err := c.Subscribe("s", 1, 50)
	if err != nil {
		t.Fatal(err)
	}
	if ack.SubID != 1 {
		t.Fatalf("first granted subscription id = %d, want 1", ack.SubID)
	}
	queuedDelta(t, c)
	if c.PendingDeltas() != 0 {
		t.Fatalf("pending deltas = %d, want 0", c.PendingDeltas())
	}
}

// TestSubscribeConcurrentAppends is the delta-accounting race test: two
// writers append concurrently to their own bases while three subscribers
// each hold a standing query on both. Every subscriber must receive
// exactly one delta per append per subscription, carrying exactly the
// appended record, with per-subscription epochs strictly increasing, and
// replaying the region replacements must reconstruct the server's final
// state record for record. Run under -race this also exercises the
// wmu → conn.wm frame path against concurrent turn traffic.
func TestSubscribeConcurrentAppends(t *testing.T) {
	const (
		nSubscribers = 3
		nWriters     = 2
		nAppends     = 30 // per writer
		spanEnd      = 1000
	)
	srv := testServer(t, Config{Options: core.Options{Verify: true}}, 10) // base "s" unused; writers get b1..bN
	for w := 1; w <= nWriters; w++ {
		if err := srv.CreateSequence(fmt.Sprintf("b%d", w), testData(t, 10), storage.KindSparse); err != nil {
			t.Fatal(err)
		}
	}
	addr := startTCP(t, srv)

	type subState struct {
		c     *wire.Client
		ids   [nWriters]uint64 // subscription id per base
		state [nWriters]map[seq.Pos]seq.Record
	}
	subs := make([]*subState, nSubscribers)
	for i := range subs {
		// The subscribers block in ReadDelta while the writers run, so a
		// read deadline turns a lost delta into a failure, not a hang.
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := nc.SetReadDeadline(time.Now().Add(30 * time.Second)); err != nil {
			t.Fatal(err)
		}
		c, err := wire.NewClient(nc, fmt.Sprintf("sub%d", i))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		st := &subState{c: c}
		for w := 0; w < nWriters; w++ {
			ack, err := c.Subscribe(fmt.Sprintf("b%d", w+1), 1, spanEnd)
			if err != nil {
				t.Fatal(err)
			}
			st.ids[w] = ack.SubID
			st.state[w] = make(map[seq.Pos]seq.Record)
		}
		subs[i] = st
	}

	var wg sync.WaitGroup
	errc := make(chan error, nSubscribers+nWriters)

	// Writers: each appends nAppends records to its own base, racing the
	// other writer for the server's write lock.
	for w := 0; w < nWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := wire.Dial(addr, fmt.Sprintf("writer%d", w))
			if err != nil {
				errc <- err
				return
			}
			defer c.Close()
			for i := 0; i < nAppends; i++ {
				pos := int64(11 + i)
				if _, err := c.Append(fmt.Sprintf("b%d", w+1), pos, seq.Record{seq.Int(pos * 10)}); err != nil {
					errc <- fmt.Errorf("writer %d append %d: %w", w, pos, err)
					return
				}
			}
		}(w)
	}

	// Subscribers: drain the initial snapshots plus one delta per append
	// per subscription, applying each as a region replacement.
	for _, st := range subs {
		wg.Add(1)
		go func(st *subState) {
			defer wg.Done()
			lastEpoch := make(map[uint64]int64)
			counts := make(map[uint64]int)
			want := nWriters * (1 + nAppends)
			for n := 0; n < want; n++ {
				d, err := st.c.ReadDelta()
				if err != nil {
					errc <- err
					return
				}
				if d.Epoch <= lastEpoch[d.SubID] && !(lastEpoch[d.SubID] == 0 && d.Epoch == 0) {
					errc <- fmt.Errorf("sub %d: epoch %d after %d", d.SubID, d.Epoch, lastEpoch[d.SubID])
					return
				}
				lastEpoch[d.SubID] = d.Epoch
				counts[d.SubID]++
				if counts[d.SubID] > 1 { // incremental: exactly the one appended record
					if d.Start != d.End || len(d.Entries) != 1 || d.Entries[0].Pos != seq.Pos(d.Start) {
						errc <- fmt.Errorf("sub %d: incremental delta %+v not a single-record replacement", d.SubID, d)
						return
					}
				}
				var w int
				for i, id := range st.ids {
					if id == d.SubID {
						w = i
					}
				}
				for p := seq.Pos(d.Start); p <= seq.Pos(d.End); p++ {
					delete(st.state[w], p)
				}
				for _, e := range d.Entries {
					if e.Pos < seq.Pos(d.Start) || e.Pos > seq.Pos(d.End) {
						errc <- fmt.Errorf("sub %d: entry %d outside region [%d,%d]", d.SubID, e.Pos, d.Start, d.End)
						return
					}
					st.state[w][e.Pos] = e.Rec
				}
			}
			for id, n := range counts {
				if n != 1+nAppends {
					errc <- fmt.Errorf("sub %d: %d deltas, want %d", id, n, 1+nAppends)
					return
				}
			}
		}(st)
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Every subscriber's replayed state must match a fresh query.
	check, err := wire.Dial(addr, "check")
	if err != nil {
		t.Fatal(err)
	}
	defer check.Close()
	for w := 0; w < nWriters; w++ {
		res, err := check.Query(fmt.Sprintf("b%d", w+1), 1, spanEnd)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Entries) != 10+nAppends {
			t.Fatalf("b%d: %d entries, want %d", w+1, len(res.Entries), 10+nAppends)
		}
		for _, st := range subs {
			if len(st.state[w]) != len(res.Entries) {
				t.Fatalf("b%d: subscriber replayed %d records, server has %d", w+1, len(st.state[w]), len(res.Entries))
			}
			for _, e := range res.Entries {
				rec, ok := st.state[w][e.Pos]
				if !ok || len(rec) != len(e.Rec) || rec[0] != e.Rec[0] {
					t.Fatalf("b%d pos %d: replayed %v, server %v", w+1, e.Pos, rec, e.Rec)
				}
			}
		}
	}

	// One subscriber drops a subscription; the next append to that base
	// must reach the other two but not it.
	quitter, keeper := subs[0], subs[1]
	if _, err := quitter.c.Unsubscribe(quitter.ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := check.Append("b1", 11+nAppends, seq.Record{seq.Int(-7)}); err != nil {
		t.Fatal(err)
	}
	if _, err := keeper.c.ListViews(); err != nil { // a turn reads the pushed delta
		t.Fatal(err)
	}
	d := queuedDelta(t, keeper.c)
	if d.SubID != keeper.ids[0] || len(d.Entries) != 1 || d.Entries[0].Rec[0] != seq.Int(-7) {
		t.Fatalf("post-unsubscribe delta to keeper = %+v", d)
	}
	if _, err := quitter.c.Query("b1", 1, spanEnd); err != nil {
		t.Fatal(err)
	}
	if n := quitter.c.PendingDeltas(); n != 0 {
		t.Fatalf("quitter pending deltas = %d, want 0", n)
	}
}

// TestSubscriptionEndsOnDrop: dropping a base a subscription reads ends
// the subscription with one final delta that empties its span at the
// drop's epoch. A sequence later created under the same name never
// reaches the client's copy, and the id is gone.
func TestSubscriptionEndsOnDrop(t *testing.T) {
	srv := testServer(t, Config{Options: core.Options{Verify: true}}, 10)
	addr := startTCP(t, srv)
	c, err := wire.Dial(addr, "test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ack, err := c.Subscribe("sum(s, v, 3)", 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	queuedDelta(t, c)
	if err := srv.DropSequence("s"); err != nil {
		t.Fatal(err)
	}
	// A turn after the drop: the final delta was pushed before it.
	if _, err := c.ListViews(); err != nil {
		t.Fatal(err)
	}
	if n := c.PendingDeltas(); n != 1 {
		t.Fatalf("pending deltas after drop = %d, want the final one", n)
	}
	d := queuedDelta(t, c)
	if d.SubID != ack.SubID || d.Epoch != srv.Epoch() || d.Start != 1 || d.End != 100 || len(d.Entries) != 0 {
		t.Fatalf("final delta = %+v, want sub %d emptying [1,100] at epoch %d", d, ack.SubID, srv.Epoch())
	}
	var se *wire.ServerError
	if _, err := c.Unsubscribe(ack.SubID); !errors.As(err, &se) || se.Code != wire.CodeNotFound {
		t.Fatalf("unsubscribe after drop = %v, want code %q", err, wire.CodeNotFound)
	}

	// A new s under the old name, then a write to it: nothing for the
	// ended subscription.
	entries := make([]seq.Entry, 10)
	for i := range entries {
		entries[i] = seq.Entry{Pos: seq.Pos(i + 1), Rec: seq.Record{seq.Int(1000)}}
	}
	data, err := seq.NewMaterialized(testData(t, 0).Info().Schema, entries)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.CreateSequence("s", data, storage.KindSparse); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append("s", 11, seq.Record{seq.Int(1000)}); err != nil {
		t.Fatal(err)
	}
	if n := c.PendingDeltas(); n != 0 {
		t.Fatalf("pending deltas after re-create and append = %d, want 0", n)
	}
}

// TestSubscriptionEndsOnFailedHalo: a write whose halo fails to evaluate
// (integer division by zero in the appended record) ends the
// subscription the way a drop does, while the write itself succeeds.
func TestSubscriptionEndsOnFailedHalo(t *testing.T) {
	srv := testServer(t, Config{Options: core.Options{Verify: true}}, 10)
	addr := startTCP(t, srv)
	c, err := wire.Dial(addr, "test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ack, err := c.Subscribe("select(s, 100 / v > 5)", 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	queuedDelta(t, c)
	epoch, err := c.Append("s", 11, seq.Record{seq.Int(0)})
	if err != nil {
		t.Fatalf("append = %v, want the write to succeed", err)
	}
	if n := c.PendingDeltas(); n != 1 {
		t.Fatalf("pending deltas after the failing append = %d, want the final one", n)
	}
	d := queuedDelta(t, c)
	if d.SubID != ack.SubID || d.Epoch != epoch || d.Start != 1 || d.End != 100 || len(d.Entries) != 0 {
		t.Fatalf("final delta = %+v, want sub %d emptying [1,100] at epoch %d", d, ack.SubID, epoch)
	}
	if _, err := c.Append("s", 12, seq.Record{seq.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if n := c.PendingDeltas(); n != 0 {
		t.Fatalf("pending deltas after the subscription ended = %d, want 0", n)
	}
	var se *wire.ServerError
	if _, err := c.Unsubscribe(ack.SubID); !errors.As(err, &se) || se.Code != wire.CodeNotFound {
		t.Fatalf("unsubscribe after a failed halo = %v, want code %q", err, wire.CodeNotFound)
	}
}

// TestSubscribeLosesHeldRecord: a write can take records away from a
// subscriber. A low append pulls the trailing averages in its halo below
// the threshold, so its delta clears records the subscriber holds and
// carries no entries; a server that skipped such a delta would leave
// them in the subscriber's copy.
func TestSubscribeLosesHeldRecord(t *testing.T) {
	srv := testServer(t, Config{Options: core.Options{Verify: true}}, 10)
	addr := startTCP(t, srv)
	c, err := wire.Dial(addr, "test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const q = "select(avg(s, v, 4), avg > 6)"
	if _, err := c.Subscribe(q, 1, 100); err != nil {
		t.Fatal(err)
	}
	held := make(map[seq.Pos]seq.Record)
	apply := func(d *wire.Delta) {
		for p := seq.Pos(d.Start); p <= seq.Pos(d.End); p++ {
			delete(held, p)
		}
		for _, e := range d.Entries {
			held[e.Pos] = e.Rec
		}
	}
	apply(queuedDelta(t, c))
	before := len(held)
	if _, err := c.Append("s", 11, seq.Record{seq.Int(-100)}); err != nil {
		t.Fatal(err)
	}
	d := queuedDelta(t, c)
	if len(d.Entries) != 0 {
		t.Fatalf("delta = %+v, want a replacement with no entries", d)
	}
	apply(d)

	res, err := c.Query(q, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) >= before {
		t.Fatalf("the append took no record away: %d matches before, %d after", before, len(res.Entries))
	}
	if len(held) != len(res.Entries) {
		t.Fatalf("subscriber holds %d records, a fresh query finds %d", len(held), len(res.Entries))
	}
	for _, e := range res.Entries {
		if rec, ok := held[e.Pos]; !ok || rec[0] != e.Rec[0] {
			t.Fatalf("pos %d: subscriber holds %v, a fresh query finds %v", e.Pos, rec, e.Rec)
		}
	}
}
