package main

import (
	"bytes"
	"net"
	"strings"
	"testing"

	"repro/internal/seq"
	"repro/internal/server"
	"repro/internal/storage"
)

// startRemote boots an in-process seqd engine on a loopback listener.
func startRemote(t *testing.T) string {
	t.Helper()
	schema, err := seq.NewSchema(seq.Field{Name: "v", Type: seq.TInt})
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]seq.Entry, 20)
	for i := range entries {
		entries[i] = seq.Entry{Pos: seq.Pos(i + 1), Rec: seq.Record{seq.Int(int64(i + 1))}}
	}
	data, err := seq.NewMaterialized(schema, entries)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{Verify: true})
	if err := srv.CreateSequence("s", data, storage.KindSparse); err != nil {
		t.Fatal(err)
	}
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

// TestConnectRepl drives the full remote shell through one scripted
// session: catalog, query, append, views, options, errors.
func TestConnectRepl(t *testing.T) {
	addr := startRemote(t)
	script := strings.Join([]string{
		"help",
		"list",
		"describe s",
		"select(s, v > 15) over 1 20",
		"append s 21 21",
		"select(s, v > 15) over 1 30",
		"explain select(s, v > 15) over 1 20",
		"explain analyze select(s, v > 15) over 1 20",
		"materialize hot as select(s, v > 5) over 1 20",
		"show views",
		"set parallelism 2",
		"set views off",
		"drop view hot",
		"epoch",
		"subscribe select(s, v > 15) over 1 100",
		"deltas", // nothing queued beyond the drained snapshot
		"append s 22 22",
		"deltas", // the append's delta arrived during the append turn
		"unsubscribe 1",
		"describe nope",        // error, stays usable
		"select(s, nope) over", // parse error of the shell itself
		"list",
		"quit",
	}, "\n") + "\n"
	var out bytes.Buffer
	if err := connectRepl(addr, strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"connected to seqd",
		"remote commands",
		"s: schema=(v int)",
		"(5 rows @epoch 0",                  // first query, pre-append
		"visible from epoch 1",              // append ack
		"(6 rows @epoch 1",                  // second query sees the append
		"plan @epoch",                       // explain
		"server counters:",                  // explain analyze counter block
		`materialized "hot"`,                // materialize ack
		"valid from epoch",                  // show views
		"parallelism = 2",                   // set option
		"views = false",                     // set option
		`dropped view "hot"`,                // drop ack
		"epoch 1 (as of the last response)", // epoch command
		"subscription 1 (v int) at epoch 1; initial content follows",
		"delta sub=1 epoch=1 region=[1,100]: 6 record(s)", // initial snapshot
		"no pending deltas", // idle deltas command
		"delta sub=1 epoch=2 region=[22,22]: 1 record(s)", // the append's delta
		"unsubscribed 1",
		`error: seqd: not-found`, // server-side error surfaced
		"error: expected",        // local parse error
	} {
		if !strings.Contains(got, want) {
			t.Errorf("session output missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full session:\n%s", got)
	}
}
