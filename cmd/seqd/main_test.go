package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"testing"

	"repro/internal/seq"
	"repro/internal/server"
	"repro/internal/wire"
)

// TestEveryFlagDocumented enforces the operator's-guide contract: every
// seqd flag appears in docs/OPERATIONS.md as `-name`, and every `-name`
// the guide's seqd flag table mentions exists. Adding a flag without
// documenting it (or vice versa) fails here.
func TestEveryFlagDocumented(t *testing.T) {
	raw, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatalf("docs/OPERATIONS.md must exist and document every seqd flag: %v", err)
	}
	doc := string(raw)

	fs, _ := newFlags()
	fs.VisitAll(func(f *flag.Flag) {
		if !strings.Contains(doc, "`-"+f.Name+"`") {
			t.Errorf("flag -%s (%s) is not documented in docs/OPERATIONS.md", f.Name, f.Usage)
		}
	})

	// Reverse direction: every `-flag` row in the guide's seqd table
	// must exist. The table rows start "| `-name`".
	for _, line := range strings.Split(doc, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "| `-") {
			continue
		}
		name := line[len("| `-"):]
		if i := strings.IndexByte(name, '`'); i >= 0 {
			name = name[:i]
		}
		if fs.Lookup(name) == nil {
			t.Errorf("docs/OPERATIONS.md documents -%s, which seqd does not define", name)
		}
	}
}

// TestDaemonEndToEnd boots the daemon wiring (server + Table 1 data) on
// a loopback listener and runs a paper query through the wire client.
func TestDaemonEndToEnd(t *testing.T) {
	_, o := newFlags()
	o.table1 = 1
	o.name = "seqd-test"
	o.verify = true
	srv := server.New(o.serverConfig())
	if err := loadData(srv, o); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	c, err := wire.Dial(ln.Addr().String(), "daemon-test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	names, err := c.ListSeqs()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(names) != "[dec hp ibm]" {
		t.Fatalf("sequences = %v", names)
	}
	res, err := c.Query("select(compose(ibm, hp), ibm.close > hp.close)", 1, 750)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) == 0 {
		t.Fatal("paper query returned nothing")
	}
}

// TestLoadCSV exercises the -load path.
func TestLoadCSV(t *testing.T) {
	dir := t.TempDir()
	file := dir + "/p.csv"
	if err := os.WriteFile(file, []byte("pos,v\n1,10\n2,20\n3,30\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, o := newFlags()
	o.loads = loadList{"p=" + file}
	srv := server.New(server.Config{})
	if err := loadData(srv, o); err != nil {
		t.Fatal(err)
	}
	sess := srv.NewSession("t")
	res, err := sess.Query("select(p, v > 10)", seq.NewSpan(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 2 {
		t.Fatalf("got %d entries, want 2", len(res.Entries))
	}

	// Malformed specs fail loudly.
	_, o = newFlags()
	o.loads = loadList{"nope"}
	if err := loadData(server.New(server.Config{}), o); err == nil {
		t.Fatal("malformed -load accepted")
	}
}

// TestDataDirPersistsAcrossBoots boots the daemon wiring with -data,
// writes through the wire, shuts down, and boots again on the same
// directory: the recovered state serves, and -table1 does not clash
// with the recovered sequences.
func TestDataDirPersistsAcrossBoots(t *testing.T) {
	dir := t.TempDir()
	boot := func() (*server.Server, func() error) {
		_, o := newFlags()
		o.table1 = 1
		o.data = dir
		o.checkpointInterval = -1
		srv := server.New(server.Config{Name: "seqd-test"})
		ddb, err := attachData(srv, o)
		if err != nil {
			t.Fatal(err)
		}
		if err := loadData(srv, o); err != nil {
			ddb.Close()
			t.Fatal(err)
		}
		return srv, ddb.Close
	}

	srv, closeData := boot()
	sess := srv.NewSession("t")
	if _, err := srv.Append("ibm", 501, seq.Record{seq.Float(1), seq.Float(2), seq.Int(3)}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Materialize("cheap", "select(ibm, close < 1000.0)", seq.NewSpan(200, 500)); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if err := closeData(); err != nil {
		t.Fatal(err)
	}

	srv2, closeData2 := boot()
	defer func() {
		srv2.Close()
		if err := closeData2(); err != nil {
			t.Error(err)
		}
	}()
	if got := fmt.Sprint(srv2.Sequences()); got != "[dec hp ibm]" {
		t.Fatalf("sequences after reboot = %v", got)
	}
	sess2 := srv2.NewSession("t")
	res, err := sess2.Query("ibm", seq.NewSpan(501, 501))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 1 {
		t.Fatalf("appended record lost across reboot: %d entries", len(res.Entries))
	}
	if vcs := srv2.ViewCounters(); len(vcs) != 1 || vcs[0].Name != "cheap" {
		t.Fatalf("views after reboot = %+v", vcs)
	}
}
