package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"

	seqproc "repro"
	"repro/internal/core"
	"repro/internal/seq"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/workload"
)

// createFixture creates the script's sequences: s, a sparse (v int)
// over [1,20] with v = pos, and ibm of the paper's Table 1 at scale 1.
func createFixture(t *testing.T, create func(string, *seq.Materialized, storage.Kind) error) {
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
	ibm, _, _, err := workload.Table1(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := create("s", data, storage.KindSparse); err != nil {
		t.Fatal(err)
	}
	if err := create("ibm", ibm, storage.KindSparse); err != nil {
		t.Fatal(err)
	}
}

// startRemote boots an in-process seqd engine on a loopback listener.
func startRemote(t *testing.T) string {
	t.Helper()
	srv := server.New(server.Config{Options: core.Options{Verify: true}})
	createFixture(t, srv.CreateSequence)
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

// TestConnectRepl drives the shell through one scripted session —
// catalog, query, append, views, options, subscriptions, errors —
// against seqd over TCP (seqcli connect) and against the in-process
// database over its pipe (plain seqcli), expecting the same output.
func TestConnectRepl(t *testing.T) {
	lines := []string{
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
		"append ibm 751 98 99 4200", // values typed by ibm's schema
		"ibm over 751 751",
		"describe nope",        // error, stays usable
		"select(s, nope) over", // parse error of the shell itself
		"list",
	}
	// Fifty more appends: the in-process database reclaims what each
	// superseded, as the library's own writes do.
	for pos := 23; pos < 73; pos++ {
		lines = append(lines, fmt.Sprintf("append s %d %d", pos, pos))
	}
	lines = append(lines, "explain analyze select(s, v > 15) over 1 100", "quit")
	script := strings.Join(lines, "\n") + "\n"

	for _, mode := range []struct {
		name string
		run  func(t *testing.T, in io.Reader, out io.Writer) error
	}{
		{"connect", func(t *testing.T, in io.Reader, out io.Writer) error {
			return connectRepl(startRemote(t), in, out)
		}},
		{"local", func(t *testing.T, in io.Reader, out io.Writer) error {
			db := seqproc.New()
			createFixture(t, db.CreateSequence)
			if err := localRepl(db, in, out); err != nil {
				return err
			}
			// The versions each append superseded were reclaimed after
			// its turn, as the library's own writes reclaim theirs.
			if v, _ := db.GC(); v != 0 {
				return fmt.Errorf("%d superseded versions left after the appends", v)
			}
			return nil
		}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := mode.run(t, strings.NewReader(script), &out); err != nil {
				t.Fatal(err)
			}
			got := out.String()
			for _, want := range []string{
				"connected to ",
				"SEQL operators",                    // help
				"s: schema=(v int)",                 // describe
				"(5 rows @epoch 0",                  // first query, pre-append
				"visible from epoch 1\n",            // append ack
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
				"751\t98\t99\t4200\n(1 rows @epoch 3", // ibm append: 98 and 99 parsed as floats
				`error: seqd: not-found`,              // server-side error surfaced
				"error: expected",                     // local parse error
				"visible from epoch 53\n",             // the last of the fifty appends
			} {
				if !strings.Contains(got, want) {
					t.Errorf("session output missing %q", want)
				}
			}
			if t.Failed() {
				t.Logf("full session:\n%s", got)
			}
		})
	}
}
