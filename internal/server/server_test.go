package server

import (
	"errors"
	"fmt"
	"net"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/matview"
	"repro/internal/rewrite"
	"repro/internal/seq"
	"repro/internal/storage"
	"repro/internal/wire"
	"repro/internal/workload"
)

// testData builds a sparse one-column int sequence v=i at positions 1..n.
func testData(t *testing.T, n int) *seq.Materialized {
	t.Helper()
	schema, err := seq.NewSchema(seq.Field{Name: "v", Type: seq.TInt})
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]seq.Entry, n)
	for i := range entries {
		entries[i] = seq.Entry{Pos: seq.Pos(i + 1), Rec: seq.Record{seq.Int(int64(i + 1))}}
	}
	data, err := seq.NewMaterialized(schema, entries)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func testServer(t *testing.T, cfg Config, n int) *Server {
	t.Helper()
	srv := New(cfg)
	if err := srv.CreateSequence("s", testData(t, n), storage.KindSparse); err != nil {
		t.Fatal(err)
	}
	return srv
}

// startTCP serves srv on a loopback listener, tearing down with the test.
func startTCP(t *testing.T, srv *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return ln.Addr().String()
}

func TestServerQueryOverWire(t *testing.T) {
	srv := testServer(t, Config{Options: core.Options{Verify: true}}, 100)
	addr := startTCP(t, srv)

	c, err := wire.Dial(addr, "test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Server() != "seqd" || c.Version() != wire.ProtocolVersion {
		t.Fatalf("handshake: server %q version %d", c.Server(), c.Version())
	}

	res, err := c.Query("select(s, v > 90)", 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 10 || res.Rows != 10 {
		t.Fatalf("got %d entries, %d rows, want 10", len(res.Entries), res.Rows)
	}
	for i, e := range res.Entries {
		if want := seq.Pos(91 + i); e.Pos != want || e.Rec[0].AsInt() != int64(want) {
			t.Fatalf("entry %d = %v@%d, want %d@%d", i, e.Rec, e.Pos, want, want)
		}
	}
	if len(res.Fields) != 1 || res.Fields[0].Name != "v" {
		t.Fatalf("fields = %v", res.Fields)
	}
	if res.Epoch != 0 {
		t.Fatalf("epoch = %d, want 0", res.Epoch)
	}

	// Result batching: more rows than one ResultRows frame carries.
	res, err = c.Query("select(s, v > 0)", 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 100 {
		t.Fatalf("full scan returned %d entries", len(res.Entries))
	}
}

func TestServerAppendAdvancesEpoch(t *testing.T) {
	srv := testServer(t, Config{}, 10)
	addr := startTCP(t, srv)
	c, err := wire.Dial(addr, "test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	e1, err := c.Append("s", 11, seq.Record{seq.Int(11)})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := c.Append("s", 12, seq.Record{seq.Int(12)})
	if err != nil {
		t.Fatal(err)
	}
	if e1 != 1 || e2 != 2 {
		t.Fatalf("append epochs %d, %d, want 1, 2", e1, e2)
	}
	if c.Epoch() != 2 {
		t.Fatalf("client-side epoch %d after turn, want 2", c.Epoch())
	}
	res, err := c.Query("select(s, v > 0)", 1, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 12 || res.Epoch != 2 {
		t.Fatalf("post-append query: %d entries at epoch %d", len(res.Entries), res.Epoch)
	}

	// Append rejections keep the connection usable.
	if _, err := c.Append("s", 5, seq.Record{seq.Int(5)}); err == nil {
		t.Fatal("non-monotonic append accepted")
	} else {
		var se *wire.ServerError
		if !errors.As(err, &se) || se.Code != wire.CodeAppend {
			t.Fatalf("append error = %v", err)
		}
	}
	if _, err := c.Append("nope", 1, seq.Record{seq.Int(1)}); err == nil {
		t.Fatal("append to unknown sequence accepted")
	} else {
		var se *wire.ServerError
		if !errors.As(err, &se) || se.Code != wire.CodeNotFound {
			t.Fatalf("unknown-sequence error = %v", err)
		}
	}
	if _, err := c.Query("select(s, v > 0)", 1, 20); err != nil {
		t.Fatalf("connection unusable after errors: %v", err)
	}
}

func TestServerExplainAnalyzeAndCounters(t *testing.T) {
	srv := testServer(t, Config{Options: core.Options{Verify: true}}, 200)
	addr := startTCP(t, srv)
	c, err := wire.Dial(addr, "test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	plan, err := c.Explain("select(s, v > 100)", 1, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "plan @epoch 0") || !strings.Contains(plan, "stream cost") {
		t.Fatalf("explain output:\n%s", plan)
	}

	metrics, err := c.Analyze("select(s, v > 100)", 1, 200)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"server counters:", "epoch", "pinned-epoch", "live-readers",
		"page-versions", "workers", "queue-wait", "queries", "appends", "conflicts"} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("analyze output missing %q:\n%s", want, metrics)
		}
	}
}

func TestServerMaterializeAndViews(t *testing.T) {
	srv := testServer(t, Config{Options: core.Options{Verify: true}}, 100)
	addr := startTCP(t, srv)
	c, err := wire.Dial(addr, "test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Materialize("hot", "select(s, v > 50)", 1, 100); err != nil {
		t.Fatal(err)
	}
	views, err := c.ListViews()
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 1 || views[0].Name != "hot" || views[0].InvalidFrom != 0 {
		t.Fatalf("views = %+v", views)
	}

	// A write outside the view's span leaves it valid: the append's
	// delta halo [101,101] misses [1,100], so maintenance is a no-op
	// where the old behavior invalidated.
	if _, err := c.Append("s", 101, seq.Record{seq.Int(101)}); err != nil {
		t.Fatal(err)
	}
	views, err = c.ListViews()
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 1 || views[0].InvalidFrom != 0 {
		t.Fatalf("views after out-of-span append = %+v", views)
	}
	reports := srv.TakeMaintenanceReports()
	if len(reports) != 1 || reports[0].Action != matview.MaintainNone {
		t.Fatalf("maintenance reports after out-of-span append = %v", reports)
	}

	// A write inside a view's span is stitched: a trailing-window sum's
	// hull extends past the base end, so the next append lands inside
	// the view. The view stays valid, its fresh generation is stamped
	// with the write's epoch, and the stitched region reflects the new
	// record.
	if _, err := c.Materialize("wide", "sum(s, v, 3)", 1, 200); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append("s", 102, seq.Record{seq.Int(102)}); err != nil {
		t.Fatal(err)
	}
	stitched := false
	for _, rep := range srv.TakeMaintenanceReports() {
		if rep.ViewName == "wide" {
			if rep.Action != matview.MaintainStitch {
				t.Fatalf("wide view not stitched: %v", rep)
			}
			stitched = true
		}
	}
	if !stitched {
		t.Fatal("no maintenance report for the wide view")
	}
	views, err = c.ListViews()
	if err != nil {
		t.Fatal(err)
	}
	// The swap keeps the superseded generation for readers pinned below
	// the write's epoch; the live generation is stamped with it.
	var live, old bool
	for _, v := range views {
		if v.Name != "wide" {
			continue
		}
		switch v.InvalidFrom {
		case 0:
			live = true
			if v.FromEpoch != 2 {
				t.Fatalf("live wide generation = %+v, want valid from epoch 2", v)
			}
		case 2:
			old = true
		default:
			t.Fatalf("unexpected wide generation %+v", v)
		}
	}
	if !live || !old {
		t.Fatalf("want a live and a superseded wide generation, got %+v", views)
	}
	res, err := c.Query("sum(s, v, 3)", 1, 103)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range res.Entries {
		if e.Pos == 102 {
			found = true
			if len(e.Rec) != 1 || e.Rec[0] != seq.Int(100+101+102) {
				t.Fatalf("stitched window at 102 = %v, want sum 303", e.Rec)
			}
		}
	}
	if !found {
		t.Fatal("no entry at position 102 after stitch")
	}

	if _, err := c.DropView("wide"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DropView("hot"); err != nil {
		t.Fatal(err)
	}
	if views, _ := c.ListViews(); len(views) != 0 {
		t.Fatalf("views after drop = %+v", views)
	}
	if _, err := c.DropView("hot"); err == nil {
		t.Fatal("double drop accepted")
	}
}

func TestServerCatalogAndOptions(t *testing.T) {
	srv := testServer(t, Config{}, 50)
	addr := startTCP(t, srv)
	c, err := wire.Dial(addr, "test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	names, err := c.ListSeqs()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "s" {
		t.Fatalf("sequences = %v", names)
	}
	info, err := c.Describe("s")
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "s" || info.Kind != "sparse" || info.Start != 1 || info.End != 50 {
		t.Fatalf("describe = %+v", info)
	}
	if _, err := c.Describe("nope"); err == nil {
		t.Fatal("describe unknown accepted")
	}

	for _, opt := range [][2]string{
		{"parallelism", "2"}, {"reopt", "on"}, {"views", "off"}, {"verify", "on"},
	} {
		if _, err := c.SetOption(opt[0], opt[1]); err != nil {
			t.Fatalf("set %s=%s: %v", opt[0], opt[1], err)
		}
	}
	if _, err := c.SetOption("nope", "1"); err == nil {
		t.Fatal("unknown option accepted")
	} else {
		var se *wire.ServerError
		if !errors.As(err, &se) || se.Code != wire.CodeOption {
			t.Fatalf("option error = %v", err)
		}
	}

	// Parse and plan errors come back classified.
	if _, err := c.Query("select(s, nope > 3)", 1, 10); err == nil {
		t.Fatal("bad query accepted")
	} else {
		var se *wire.ServerError
		if !errors.As(err, &se) || se.Code != wire.CodeParse {
			t.Fatalf("parse error = %v", err)
		}
	}
}

// TestServerVerifyOption: a server started with Options.Verify verifies
// every plan, a read's and a subscription's alike, and "set verify off"
// cannot turn that off. The rewrite rule under test shifts a select's
// base by one position, which breaks Prop. 2.1 without breaking the
// plan, so only the verifier can refuse it.
func TestServerVerifyOption(t *testing.T) {
	shift := rewrite.Rule{Name: "shift", Group: "test", Apply: func(n *algebra.Node) (*algebra.Node, bool, error) {
		if n.Kind != algebra.KindSelect || n.Inputs[0].Kind != algebra.KindBase {
			return n, false, nil
		}
		in, err := algebra.PosOffset(n.Inputs[0], 1)
		if err != nil {
			return nil, false, err
		}
		out, err := algebra.Select(in, n.Pred)
		return out, err == nil, err
	}}
	for _, verify := range []bool{false, true} {
		srv := testServer(t, Config{Options: core.Options{Verify: verify, Rules: []rewrite.Rule{shift}}}, 10)
		c, err := wire.Dial(startTCP(t, srv), "test")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if got, err := c.SetOption("verify", "off"); err != nil || got != fmt.Sprintf("verify = %v", verify) {
			t.Fatalf("server verify %v: set verify off = %q, %v", verify, got, err)
		}
		_, qerr := c.Query("select(s, v > 5)", 1, 10)
		_, serr := c.Subscribe("select(s, v > 5)", 1, 10)
		for _, err := range []error{qerr, serr} {
			var se *wire.ServerError
			switch {
			case !verify && err != nil:
				t.Fatalf("unverified server refused the plan: %v", err)
			case verify && (!errors.As(err, &se) || se.Code != wire.CodePlan || !strings.Contains(se.Message, "Prop. 2.1")):
				t.Fatalf("verifying server: error = %v, want a plan error naming Prop. 2.1", err)
			}
		}
	}
}

// TestCloseUnblocksIdleConnections: Close must not wait for idle
// clients — handlers park in wire.ReadMessage with no deadline, so Close
// closes every tracked connection to unblock them. Before the tracking
// was added, this test hung forever.
func TestCloseUnblocksIdleConnections(t *testing.T) {
	srv := testServer(t, Config{}, 10)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	// An idle client: handshake completes, then no further frames.
	c, err := wire.Dial(ln.Addr().String(), "idle")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung on an idle connection")
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve after Close: %v", err)
	}
}

// TestCloseBeforeServe: a Close that wins the race against Serve
// registering its listener finds nothing to close, so Serve itself must
// notice and return instead of blocking in Accept forever.
func TestCloseBeforeServe(t *testing.T) {
	srv := testServer(t, Config{GCInterval: time.Millisecond}, 10)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srv.Close()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve after Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve blocked in Accept after Close")
	}
	if _, err := ln.Accept(); err == nil {
		t.Fatal("Serve left the listener open")
	}
}

// TestHostileFrameKeepsServerAlive sends the frame that used to panic
// the decode path (SetOption with a 2^63-1 string length) straight at a
// live server: the connection must die with a protocol error while the
// server keeps serving other clients.
func TestHostileFrameKeepsServerAlive(t *testing.T) {
	srv := testServer(t, Config{}, 10)
	addr := startTCP(t, srv)

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := wire.WriteMessage(nc, &wire.Hello{Version: wire.ProtocolVersion, Client: "evil"}); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadMessage(nc, 0); err != nil {
		t.Fatal(err)
	}
	// Hand-built SetOption frame claiming a 2^63-1 byte string.
	payload := []byte{byte(wire.TSetOption)}
	payload = append(payload, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f) // uvarint 2^63-1
	hdr := []byte{0, 0, 0, byte(len(payload))}
	if _, err := nc.Write(append(hdr, payload...)); err != nil {
		t.Fatal(err)
	}
	m, err := wire.ReadMessage(nc, 0)
	if err != nil {
		t.Fatalf("expected an Error frame, got %v", err)
	}
	if e, ok := m.(*wire.Error); !ok || e.Code != wire.CodeProtocol {
		t.Fatalf("got %T %v, want protocol error", m, m)
	}

	// The daemon survived: a fresh client still gets answers.
	c, err := wire.Dial(addr, "after")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if res, err := c.Query("select(s, v > 0)", 1, 10); err != nil || len(res.Entries) != 10 {
		t.Fatalf("server unhealthy after hostile frame: %v", err)
	}
}

func TestServerRejectsOldClient(t *testing.T) {
	srv := testServer(t, Config{}, 10)
	addr := startTCP(t, srv)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := wire.WriteMessage(nc, &wire.Hello{Version: 0, Client: "old"}); err != nil {
		t.Fatal(err)
	}
	m, err := wire.ReadMessage(nc, 0)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := m.(*wire.Error)
	if !ok || e.Code != wire.CodeVersion {
		t.Fatalf("got %T %v, want version error", m, m)
	}
}

func TestServerConcurrentClients(t *testing.T) {
	srv := testServer(t, Config{Workers: 2, Options: core.Options{Verify: true}}, 100)
	addr := startTCP(t, srv)

	const clients = 8
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func(id int) {
			c, err := wire.Dial(addr, fmt.Sprintf("c%d", id))
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < 10; j++ {
				res, err := c.Query("select(s, v > 50)", 1, 100)
				if err != nil {
					errs <- err
					return
				}
				if len(res.Entries) != 50 {
					errs <- fmt.Errorf("client %d got %d entries", id, len(res.Entries))
					return
				}
			}
			errs <- nil
		}(i)
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestSessionSnapshotStability pins the core isolation property at the
// engine level: a query sees exactly the records published at its epoch,
// never a mix.
func TestSessionSnapshotStability(t *testing.T) {
	srv := testServer(t, Config{Options: core.Options{Verify: true}}, 10)
	sess := srv.NewSession("t")

	res, err := sess.Query("select(s, v > 0)", seq.NewSpan(1, 100))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 10 || res.Epoch != 0 {
		t.Fatalf("initial query: %d entries at epoch %d", len(res.Entries), res.Epoch)
	}
	if _, err := srv.Append("s", 11, seq.Record{seq.Int(11)}); err != nil {
		t.Fatal(err)
	}
	res, err = sess.Query("select(s, v > 0)", seq.NewSpan(1, 100))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 11 || res.Epoch != 1 {
		t.Fatalf("post-append query: %d entries at epoch %d", len(res.Entries), res.Epoch)
	}

	// Reorganize publishes a new representation; contents unchanged.
	if _, err := srv.Reorganize("s", storage.KindDense); err != nil {
		t.Fatal(err)
	}
	res, err = sess.Query("select(s, v > 0)", seq.NewSpan(1, 100))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 11 || res.Epoch != 2 {
		t.Fatalf("post-reorganize query: %d entries at epoch %d", len(res.Entries), res.Epoch)
	}
	info, err := sess.Describe("s")
	if err != nil {
		t.Fatal(err)
	}
	if info.Kind != "dense" {
		t.Fatalf("kind after reorganize = %s", info.Kind)
	}
}

// TestQueuedReadHoldsNoPin: a read waits for its worker slot before it
// pins an epoch, so a queued request holds back no GC and sees the
// writes published while it waited.
func TestQueuedReadHoldsNoPin(t *testing.T) {
	srv := testServer(t, Config{Workers: 1}, 10)
	sess := srv.NewSession("t")
	srv.sem <- struct{}{} // occupy the only slot
	release := sync.OnceFunc(func() { <-srv.sem })
	defer release()
	type outcome struct {
		res *QueryResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := sess.Query("select(s, v > 0)", seq.NewSpan(1, 100))
		done <- outcome{res, err}
	}()
	// Wait until the query is parked on the worker pool.
	deadline := time.Now().Add(10 * time.Second)
	for !queuedOnPool() {
		if time.Now().After(deadline) {
			t.Fatal("query never queued for a worker slot")
		}
		time.Sleep(time.Millisecond)
	}
	if n := srv.epochs.LiveReaders(); n != 0 {
		t.Fatalf("queued read holds %d pins, want 0", n)
	}
	if _, err := srv.Append("s", 11, seq.Record{seq.Int(11)}); err != nil {
		t.Fatal(err)
	}
	release()
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if len(out.res.Entries) != 11 || out.res.Epoch != 1 {
		t.Fatalf("queued read saw %d entries at epoch %d, want 11 at epoch 1", len(out.res.Entries), out.res.Epoch)
	}
	if out.res.Queue <= 0 {
		t.Fatalf("queued read reports queue wait %v, want > 0", out.res.Queue)
	}
}

// queuedOnPool reports whether some goroutine is blocked taking a
// worker slot.
func queuedOnPool() bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "[chan send") && strings.Contains(g, "server.(*Server).acquire(") {
			return true
		}
	}
	return false
}

func TestServerGC(t *testing.T) {
	srv := testServer(t, Config{}, 10)
	for i := 11; i <= 20; i++ {
		if _, err := srv.Append("s", seq.Pos(i), seq.Record{seq.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if srv.PageVersions() == 0 {
		t.Fatal("no page versions retained")
	}
	versions, _, _ := srv.GCOnce()
	if versions != 10 {
		t.Fatalf("GC dropped %d versions, want 10", versions)
	}
	// Data unharmed.
	sess := srv.NewSession("t")
	res, err := sess.Query("select(s, v > 0)", seq.NewSpan(1, 100))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 20 {
		t.Fatalf("post-GC query: %d entries", len(res.Entries))
	}
}

// TestAnalyzePartitionPagesExact: a partitioned EXPLAIN ANALYZE over the
// memory tier meters every worker against a private fork of the pinned
// snapshot, so the per-partition page counts, the per-leaf attribution
// and the run's global page movement are one number — also when two
// sessions analyze the same base at once (run with -race).
func TestAnalyzePartitionPagesExact(t *testing.T) {
	srv := testServer(t, Config{}, 40000)
	defer srv.Close()
	global := regexp.MustCompile(`\(seqPages=(\d+) randPages=(\d+) `)
	part := regexp.MustCompile(`partition \d/2 .* pages=(\d+)seq\+(\d+)rand`)
	leaf := regexp.MustCompile(`scan\(s,.* pages=(\d+)seq\+(\d+)rand`)
	sum := func(ms [][]string) (seqPages, randPages int) {
		for _, m := range ms {
			a, _ := strconv.Atoi(m[1])
			b, _ := strconv.Atoi(m[2])
			seqPages, randPages = seqPages+a, randPages+b
		}
		return seqPages, randPages
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := srv.NewSession("analyze")
			if _, err := sess.SetOption("parallelism", "2"); err != nil {
				t.Error(err)
				return
			}
			text, _, err := sess.Analyze("select(sum(s, v, 5), sum > 10)", seq.NewSpan(1, 40000))
			if err != nil {
				t.Error(err)
				return
			}
			parts := part.FindAllStringSubmatch(text, -1)
			if !strings.Contains(text, "parallel K=2") || len(parts) != 2 {
				t.Errorf("run was not split in two:\n%s", text)
				return
			}
			gs, gr := sum(global.FindAllStringSubmatch(text, -1))
			ps, pr := sum(parts)
			ls, lr := sum(leaf.FindAllStringSubmatch(text, -1))
			// Each worker reads its half plus the 4-position halo: 625
			// pages of 64 records, one of them entered from both sides.
			if gs != 626 || ps != gs || pr != gr || ls != gs || lr != gr {
				t.Errorf("pages: global %d+%d, partitions %d+%d, leaf %d+%d, want 626 sequential in all three\n%s",
					gs, gr, ps, pr, ls, lr, text)
			}
		}()
	}
	wg.Wait()
}

// TestReoptOnOverWireDefaultsThreshold: "reopt on" must not leave the
// zero threshold, which replans and splices at every checkpoint (the
// forced-reopt fuzz mode). A well-predicted dense scan then runs every
// checkpoint and switches nowhere.
func TestReoptOnOverWireDefaultsThreshold(t *testing.T) {
	data, err := workload.Stock(workload.StockConfig{Name: "big", Span: seq.NewSpan(1, 20000), Density: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{})
	if err := srv.CreateSequence("big", data, storage.KindSparse); err != nil {
		t.Fatal(err)
	}
	c, err := wire.Dial(startTCP(t, srv), "test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.SetOption("reopt", "on"); err != nil {
		t.Fatal(err)
	}
	text, err := c.Analyze("select(big, close > 0.0)", 1, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "reopt: 19 checkpoint(s), 0 switch(es)") {
		t.Errorf("reopt on ran in the forced mode:\n%s", text)
	}
}

// TestMaintenanceReportsBounded: a server nobody drains (seqd never
// calls TakeMaintenanceReports) keeps only the most recent maintenance
// reports, however many writes pass.
func TestMaintenanceReportsBounded(t *testing.T) {
	srv := testServer(t, Config{}, 10)
	sess := srv.NewSession("test")
	const views = 20
	for i := 0; i < views; i++ {
		if _, _, err := sess.Materialize(fmt.Sprintf("v%d", i), fmt.Sprintf("select(s, v > %d)", i), seq.NewSpan(1, 5)); err != nil {
			t.Fatal(err)
		}
	}
	// Every append writes one report per view: appends enough to pass
	// twice the cap.
	appends := 2*maxMaintReports/views + 100
	for i := 0; i < appends; i++ {
		if _, err := srv.Append("s", seq.Pos(11+i), seq.Record{seq.Int(1)}); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(srv.maintReports); n != maxMaintReports {
		t.Fatalf("report log holds %d reports after %d appends under %d views, want %d", n, appends, views, maxMaintReports)
	}
	reports := srv.TakeMaintenanceReports()
	if len(reports) != maxMaintReports {
		t.Fatalf("drained %d reports, want the %d most recent", len(reports), maxMaintReports)
	}
	if last := reports[len(reports)-1]; last.Epoch != srv.Epoch() {
		t.Fatalf("last report at epoch %d, want the latest write's %d", last.Epoch, srv.Epoch())
	}
	if n := len(srv.TakeMaintenanceReports()); n != 0 {
		t.Fatalf("second drain returned %d reports, want 0", n)
	}
}

// TestCalibrationReachesReadsAndWrites: once Analyze requests have made
// the server's calibration ready, reads plan with the fitted weights,
// a write's view maintenance prices its stitch with them, and a session
// opened with weights of its own keeps those. Concurrent Analyzes and
// appends exercise the published fit under the race detector.
func TestCalibrationReachesReadsAndWrites(t *testing.T) {
	srv := testServer(t, Config{Options: core.Options{Verify: true}}, 100)
	sess := srv.NewSession("test")
	span := seq.NewSpan(1, 200)
	params := func(sess *Session) exec.CostWeights {
		t.Helper()
		var w exec.CostWeights
		if err := sess.read("select(s, v > 50)", nil, span, func(res *core.Result, _ int64, _ time.Duration) error {
			w = res.Params
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return w
	}
	defaults := exec.DefaultCostWeights()
	if got := params(sess); got != defaults {
		t.Fatalf("read before any Analyze planned with %+v, want the defaults %+v", got, defaults)
	}
	for i := 0; srv.calib.fit.Load() == nil; i++ {
		if i == 50 {
			t.Fatalf("no fit after %d Analyze requests (%d samples)", i, srv.calib.Samples())
		}
		for _, q := range []string{"select(s, v > 50)", "sum(s, v, 3)"} {
			if _, _, err := sess.Analyze(q, span); err != nil {
				t.Fatal(err)
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, _, err := srv.NewSession("concurrent").Analyze("select(s, v > 50)", span); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	for i := 0; i < 5; i++ {
		if _, err := srv.Append("s", seq.Pos(101+i), seq.Record{seq.Int(int64(101 + i))}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()

	fitted := *srv.calib.fit.Load()
	if fitted == defaults {
		t.Fatalf("the fit kept every default weight: %+v", fitted)
	}
	if got := params(sess); got != fitted {
		t.Errorf("read planned with %+v, want the fitted %+v", got, fitted)
	}

	// The write's stitch cost is the one its halo plan has under the
	// fitted weights, not under the defaults.
	if _, _, err := sess.Materialize("wide", "sum(s, v, 3)", span); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Append("s", 106, seq.Record{seq.Int(106)}); err != nil {
		t.Fatal(err)
	}
	reports := srv.TakeMaintenanceReports()
	if len(reports) != 1 || reports[0].Action != matview.MaintainStitch {
		t.Fatalf("maintenance reports = %v, want one stitch", reports)
	}
	rep := reports[0]
	v, ok := srv.views.Get("wide")
	if !ok {
		t.Fatal("view wide is gone")
	}
	stitchCost := func(w exec.CostWeights) float64 {
		t.Helper()
		h, err := core.PlanHalo(v.Node, rep.OldSpan, rep.Base, rep.Delta, srv.sequenceAt(rep.Epoch),
			core.Options{Verify: true, Params: &w})
		if err != nil {
			t.Fatal(err)
		}
		return h.Plan.Cost.Stream
	}
	if want, def := stitchCost(fitted), stitchCost(defaults); rep.StitchCost != want || want == def {
		t.Errorf("stitch cost %g; %g under the fitted weights, %g under the defaults", rep.StitchCost, want, def)
	}

	own := exec.DefaultCostWeights()
	own.RandPage = 42
	if got := params(srv.NewSessionWith("own", core.Options{Params: &own})); got != own {
		t.Errorf("a session with its own weights planned with %+v, want %+v", got, own)
	}
}
