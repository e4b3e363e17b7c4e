package server

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/seq"
	"repro/internal/storage"
	"repro/internal/wire"
)

var updateTranscript = flag.Bool("update", false, "rewrite testdata/transcript.golden")

// timingText matches the wall-clock figures a response renders: the
// queue wait in Materialize's Ack and Analyze's counter block, and the
// elapsed/time stamps of Analyze's metrics.
var timingText = regexp.MustCompile(`(queue-wait\s+)[0-9.]+[a-zµ]*s|((?:elapsed|time)=)[0-9.]+[a-zµ]*s`)

// normalize zeroes the timings a frame carries, so one turn's response
// is the same bytes on every run.
func normalize(m wire.Message) wire.Message {
	switch t := m.(type) {
	case *wire.ResultDone:
		t.ElapsedNs, t.QueueNs = 0, 0
	case *wire.Ack:
		t.Text = timingText.ReplaceAllString(t.Text, "${1}${2}T")
	case *wire.PlanText:
		t.Text = timingText.ReplaceAllString(t.Text, "${1}${2}T")
	}
	return m
}

// transcriptConn speaks raw frames to a server and records every
// response frame of each turn, timings zeroed.
type transcriptConn struct {
	t   *testing.T
	nc  net.Conn
	out strings.Builder
}

// readFrame reads one raw frame and returns it normalized and
// re-encoded, with its type name.
func (tc *transcriptConn) readFrame() (wire.Message, []byte) {
	tc.t.Helper()
	var hdr [4]byte
	if _, err := io.ReadFull(tc.nc, hdr[:]); err != nil {
		tc.t.Fatal(err)
	}
	raw := make([]byte, 4+binary.BigEndian.Uint32(hdr[:]))
	copy(raw, hdr[:])
	if _, err := io.ReadFull(tc.nc, raw[4:]); err != nil {
		tc.t.Fatal(err)
	}
	m, err := wire.ReadMessage(bytes.NewReader(raw), 0)
	if err != nil {
		tc.t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := wire.WriteMessage(&buf, normalize(m)); err != nil {
		tc.t.Fatal(err)
	}
	return m, buf.Bytes()
}

// send writes a request without waiting for its response.
func (tc *transcriptConn) send(req wire.Message) {
	tc.t.Helper()
	if err := wire.WriteMessage(tc.nc, req); err != nil {
		tc.t.Fatal(err)
	}
}

// record reads one response turn (through Ready) under label.
func (tc *transcriptConn) record(label string) {
	tc.t.Helper()
	fmt.Fprintf(&tc.out, "== %s\n", label)
	for {
		m, frame := tc.readFrame()
		fmt.Fprintf(&tc.out, "%s %s\n", wire.TypeName(m.Type()), hex.EncodeToString(frame))
		if _, ok := m.(*wire.Ready); ok {
			return
		}
	}
}

// turn sends req and records its response turn.
func (tc *transcriptConn) turn(label string, req wire.Message) {
	tc.t.Helper()
	tc.send(req)
	tc.record(label)
}

// TestWireTranscript replays one turn of every request kind, and a
// failing turn of every kind that can fail, and compares the raw
// response frames with the recorded transcript (timings zeroed).
func TestWireTranscript(t *testing.T) {
	srv := testServer(t, Config{Workers: 2}, 20)
	if err := srv.CreateSequence("t", testData(t, 5), storage.KindSparse); err != nil {
		t.Fatal(err)
	}
	addr := startTCP(t, srv)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// A turn that never ends fails the test instead of hanging it.
	if err := nc.SetDeadline(time.Now().Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	tc := &transcriptConn{t: t, nc: nc}
	tc.send(&wire.Hello{Version: wire.ProtocolVersion, Client: "transcript"})
	m, frame := tc.readFrame()
	fmt.Fprintf(&tc.out, "== hello\n%s %s\n", wire.TypeName(m.Type()), hex.EncodeToString(frame))

	tc.turn("setoption parallelism", &wire.SetOption{Name: "parallelism", Value: "1"})
	tc.turn("setoption unknown (option)", &wire.SetOption{Name: "bogus", Value: "x"})
	tc.turn("setoption bad value (option)", &wire.SetOption{Name: "views", Value: "maybe"})
	tc.turn("listseqs", &wire.ListSeqs{})
	tc.turn("describe", &wire.Describe{Name: "s"})
	tc.turn("describe unknown (not-found)", &wire.Describe{Name: "nosuch"})

	tc.turn("query", &wire.Query{SEQL: "select(s, v > 15)", Start: 1, End: 20})
	tc.turn("query syntax (parse)", &wire.Query{SEQL: "select(", Start: 1, End: 20})
	tc.turn("query unknown sequence (parse)", &wire.Query{SEQL: "nosuch", Start: 1, End: 20})
	tc.turn("query divergent (plan)", &wire.Query{SEQL: "sum(prev(s), v)", Start: 1, End: 20})
	tc.turn("explain", &wire.Explain{SEQL: "select(s, v > 15)", Start: 1, End: 20})
	tc.turn("explain syntax (parse)", &wire.Explain{SEQL: "select(", Start: 1, End: 20})
	tc.turn("explain divergent (plan)", &wire.Explain{SEQL: "sum(prev(s), v)", Start: 1, End: 20})
	tc.turn("analyze", &wire.Analyze{SEQL: "select(s, v > 15)", Start: 1, End: 20})
	tc.turn("analyze syntax (parse)", &wire.Analyze{SEQL: "select(", Start: 1, End: 20})
	tc.turn("analyze divergent (plan)", &wire.Analyze{SEQL: "sum(prev(s), v)", Start: 1, End: 20})

	tc.turn("materialize", &wire.Materialize{Name: "v1", SEQL: "select(s, v > 10)", Start: 1, End: 20})
	tc.turn("materialize duplicate (materialize)", &wire.Materialize{Name: "v1", SEQL: "select(s, v > 10)", Start: 1, End: 20})
	tc.turn("materialize unbounded (materialize)", &wire.Materialize{Name: "v2", SEQL: "s", Start: 1, End: int64(seq.MaxPos)})
	tc.turn("materialize divergent (plan remapped to materialize)", &wire.Materialize{Name: "v2", SEQL: "sum(prev(s), v)", Start: 1, End: 20})
	tc.turn("materialize syntax (parse)", &wire.Materialize{Name: "v2", SEQL: "select(", Start: 1, End: 20})

	// A conflict needs a write between the materialization's pin and its
	// registration. Holding the writer lock parks the request before it
	// registers; once it has pinned, publish a write to its base behind
	// it and let it go.
	srv.wmu.Lock()
	err = wire.WriteMessage(nc, &wire.Materialize{Name: "v3", SEQL: "t", Start: 1, End: 10})
	if err == nil {
		err = appendBehindPin(srv, "t", 6)
	}
	srv.wmu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	tc.record("materialize behind a write (conflict)")

	tc.turn("listviews", &wire.ListViews{})
	tc.turn("subscribe", &wire.Subscribe{SEQL: "select(s, v > 15)", Start: 1, End: 30})
	tc.turn("subscribe syntax (parse)", &wire.Subscribe{SEQL: "select(", Start: 1, End: 30})
	tc.turn("subscribe unbounded (plan)", &wire.Subscribe{SEQL: "s", Start: 1, End: int64(seq.MaxPos)})
	tc.turn("append with a delta", &wire.Append{Seq: "s", Pos: 21, Rec: seq.Record{seq.Int(21)}})
	tc.turn("append inside the range (append)", &wire.Append{Seq: "s", Pos: 5, Rec: seq.Record{seq.Int(5)}})
	tc.turn("append unknown (not-found)", &wire.Append{Seq: "nosuch", Pos: 1, Rec: seq.Record{seq.Int(1)}})
	tc.turn("unsubscribe", &wire.Unsubscribe{SubID: 1})
	tc.turn("unsubscribe unknown (not-found)", &wire.Unsubscribe{SubID: 99})
	tc.turn("dropview", &wire.DropView{Name: "v1"})
	tc.turn("dropview unknown (not-found)", &wire.DropView{Name: "v1"})
	tc.turn("analyze after writes", &wire.Analyze{SEQL: "select(s, v > 15)", Start: 1, End: 30})
	tc.turn("ready in request position (protocol)", &wire.Ready{Epoch: 7})

	golden := filepath.Join("testdata", "transcript.golden")
	if *updateTranscript {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(tc.out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := tc.out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("transcript differs from %s at line %d:\n got %s\nwant %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("transcript differs from %s in length: %d lines, want %d", golden, len(gl), len(wl))
	}
}

// appendBehindPin waits until a reader has pinned an epoch, then
// publishes a one-record append to base at the next epoch. The caller
// holds wmu, so the reader cannot register anything in between.
func appendBehindPin(srv *Server, base string, pos seq.Pos) error {
	deadline := time.Now().Add(10 * time.Second)
	for srv.epochs.LiveReaders() == 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("no reader pinned an epoch")
		}
		time.Sleep(time.Millisecond)
	}
	ss, e := srv.lookup(base)
	if e != nil {
		return e
	}
	next := srv.epochs.Current() + 1
	if err := ss.v.Append(seq.Entry{Pos: pos, Rec: seq.Record{seq.Int(int64(pos))}}, next); err != nil {
		return err
	}
	return srv.epochs.AdvanceTo(next)
}

// TestClientMissingFrame serves a Ready-only reply to every request and
// checks each typed Client method reports the frame it expected.
func TestClientMissingFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan struct{})
	go func() {
		defer close(served)
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		if _, err := wire.ReadMessage(nc, 0); err != nil {
			return
		}
		if wire.WriteMessage(nc, &wire.HelloAck{Version: wire.ProtocolVersion, Server: "fake"}) != nil {
			return
		}
		for {
			m, err := wire.ReadMessage(nc, 0)
			if err != nil {
				return
			}
			if _, ok := m.(*wire.Close); ok {
				return
			}
			if wire.WriteMessage(nc, &wire.Ready{Epoch: 3}) != nil {
				return
			}
		}
	}()
	c, err := wire.Dial(ln.Addr().String(), "fake-client")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		c.Close()
		<-served
	}()
	calls := []struct {
		name, frame string
		call        func() error
	}{
		{"Explain", "PlanText", func() error { _, err := c.Explain("s", 1, 2); return err }},
		{"Analyze", "PlanText", func() error { _, err := c.Analyze("s", 1, 2); return err }},
		{"Materialize", "Ack", func() error { _, err := c.Materialize("v", "s", 1, 2); return err }},
		{"Append", "Ack", func() error { _, err := c.Append("s", 1, seq.Record{seq.Int(1)}); return err }},
		{"SetOption", "Ack", func() error { _, err := c.SetOption("views", "on"); return err }},
		{"DropView", "Ack", func() error { _, err := c.DropView("v"); return err }},
		{"Unsubscribe", "Ack", func() error { _, err := c.Unsubscribe(1); return err }},
		{"ListSeqs", "SeqList", func() error { _, err := c.ListSeqs(); return err }},
		{"Describe", "SeqInfo", func() error { _, err := c.Describe("s"); return err }},
		{"Subscribe", "SubAck", func() error { _, err := c.Subscribe("s", 1, 2); return err }},
		{"ListViews", "ViewList", func() error { _, err := c.ListViews(); return err }},
	}
	for _, tc := range calls {
		err := tc.call()
		want := "seqd: response missing " + tc.frame
		if err == nil || err.Error() != want {
			t.Errorf("%s on a Ready-only reply = %v, want %q", tc.name, err, want)
		}
	}
	if c.Epoch() != 3 {
		t.Errorf("epoch after Ready-only turns = %d, want 3", c.Epoch())
	}
	// Query has no required frame: an empty turn is an empty result.
	res, err := c.Query("s", 1, 2)
	if err != nil || res.Rows != 0 || len(res.Entries) != 0 {
		t.Errorf("Query on a Ready-only reply = %+v, %v; want an empty result", res, err)
	}
}
