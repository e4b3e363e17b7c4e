package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	seqproc "repro"
)

// newTestCLI connects a shell to a fresh in-process database.
func newTestCLI(t *testing.T) (*shell, *bytes.Buffer) {
	t.Helper()
	var buf bytes.Buffer
	c := &shell{db: seqproc.New(), out: &buf}
	if err := c.connect(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.shutdown)
	return c, &buf
}

func TestCLIGenListDescribe(t *testing.T) {
	c, buf := newTestCLI(t)
	if err := c.exec("gen table1 1"); err != nil {
		t.Fatal(err)
	}
	if err := c.exec("list"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"ibm", "dec", "hp", "density"} {
		if !strings.Contains(out, want) {
			t.Errorf("list output missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := c.exec("describe ibm"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "span=[200,500]") {
		t.Errorf("describe = %q", buf.String())
	}
	if err := c.exec("describe"); err == nil {
		t.Error("describe without name must fail")
	}
	if err := c.exec("describe ghost"); err == nil {
		t.Error("describe unknown must fail")
	}
}

func TestCLIGenStockAndEvents(t *testing.T) {
	c, buf := newTestCLI(t)
	if err := c.exec("gen stock acme 1 100 0.5 7"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "created acme") {
		t.Errorf("gen output = %q", buf.String())
	}
	if err := c.exec("gen events ticks 1 100 0.3"); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{
		"gen", "gen nothing x 1 2 3", "gen stock x", "gen stock x a b c",
		"gen table1", "gen table1 x", "gen stock x 1 100 0.5 seed",
	} {
		if err := c.exec(bad); err == nil {
			t.Errorf("%q must fail", bad)
		}
	}
}

func TestCLIQueryAndExplain(t *testing.T) {
	c, buf := newTestCLI(t)
	if err := c.exec("gen table1 1"); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := c.exec("select(compose(ibm, hp), ibm.close > hp.close) over 1 750"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "rows @epoch") || !strings.Contains(out, "ibm.close") {
		t.Errorf("query output = %q", out)
	}
	buf.Reset()
	if err := c.exec("explain sum(ibm, close, 6) over 200 500"); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	if !strings.Contains(out, "stream cost") || !strings.Contains(out, "agg-") {
		t.Errorf("explain output = %q", out)
	}
	// Errors.
	if err := c.exec("select(ghost, x > 1) over 1 10"); err == nil {
		t.Error("unknown sequence must fail")
	}
	if err := c.exec("ibm"); err == nil {
		t.Error("missing range must fail")
	}
	if err := c.exec("ibm over 1"); err == nil {
		t.Error("incomplete range must fail")
	}
	if err := c.exec("ibm over a b"); err == nil {
		t.Error("non-numeric range must fail")
	}
}

func TestCLIRowLimit(t *testing.T) {
	c, buf := newTestCLI(t)
	if err := c.exec("gen stock big 1 200 1.0"); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := c.exec("big over 1 200"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "more rows") {
		t.Errorf("expected row-limit marker:\n%s", buf.String())
	}
}

func TestCLIHelp(t *testing.T) {
	c, buf := newTestCLI(t)
	if err := c.exec("help"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "SEQL operators") {
		t.Error("help output missing operator list")
	}
}

func TestSplitOver(t *testing.T) {
	src, span, err := splitOver("select(a, x > 1) over 10 20")
	if err != nil || src != "select(a, x > 1)" || span != seqproc.NewSpan(10, 20) {
		t.Errorf("splitOver = %q %v %v", src, span, err)
	}
	// "over" inside the query text: last occurrence wins.
	src, _, err = splitOver("select(rollover, x > 1) over 1 2")
	if err != nil || !strings.Contains(src, "rollover") {
		t.Errorf("splitOver = %q %v", src, err)
	}
}

func TestCLILoadSave(t *testing.T) {
	dir := t.TempDir()
	src := dir + "/in.csv"
	if err := os.WriteFile(src, []byte("pos,close\n1,10.5\n2,11.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, buf := newTestCLI(t)
	if err := c.exec("load ticks " + src); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "loaded ticks: 2 records") {
		t.Errorf("load output = %q", buf.String())
	}
	buf.Reset()
	if err := c.exec("select(ticks, close > 11.0) over 1 2"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "(1 rows @epoch") {
		t.Errorf("query output = %q", buf.String())
	}
	dst := dir + "/out.csv"
	if err := c.exec("save ticks " + dst); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(out), "pos,close") {
		t.Errorf("saved = %q", out)
	}
	// Errors.
	if err := c.exec("load x"); err == nil {
		t.Error("load without file must fail")
	}
	if err := c.exec("load y /nonexistent.csv"); err == nil {
		t.Error("missing file must fail")
	}
	if err := c.exec("save ghost " + dst); err == nil {
		t.Error("saving unknown sequence must fail")
	}
	if err := c.exec("save"); err == nil {
		t.Error("save without args must fail")
	}
}

func TestCLIMaterializedViews(t *testing.T) {
	c, buf := newTestCLI(t)
	if err := c.exec("gen table1 1"); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := c.exec("materialize crosses as select(compose(ibm, hp), ibm.close > hp.close) over 1 750"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `materialized "crosses"`) {
		t.Errorf("materialize output = %q", buf.String())
	}
	buf.Reset()
	// A repeated query is answered through the view; EXPLAIN shows it.
	if err := c.exec("explain select(compose(ibm, hp), ibm.close > hp.close) over 1 750"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `scan "crosses"`) {
		t.Errorf("explain does not use the view:\n%s", buf.String())
	}
	if err := c.exec("select(compose(ibm, hp), ibm.close > hp.close) over 1 750"); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := c.exec("show views"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "crosses") || !strings.Contains(out, "hits=") {
		t.Errorf("show views = %q", out)
	}
	buf.Reset()
	if err := c.exec("drop view crosses"); err != nil {
		t.Fatal(err)
	}
	if err := c.exec("show views"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no materialized views") {
		t.Errorf("after drop: %q", buf.String())
	}
	// Errors.
	for _, bad := range []string{
		"materialize v as ibm",         // missing range
		"materialize as ibm over 1 10", // missing name
		"materialize two words as ibm over 1 10",
		"drop view ghost",
		"drop view",
		"show",
	} {
		if err := c.exec(bad); err == nil {
			t.Errorf("%q must fail", bad)
		}
	}
}

// The durable-database round trip: open, create data and a view, close,
// reopen — everything recovers, and epoch-validity rules carry over (a
// view invalidated by an append before close stays gone).
func TestCLIOpenCloseRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, buf := newTestCLI(t)
	// Session options carry over as open and close reconnect the shell.
	if err := c.exec("set reopt on"); err != nil {
		t.Fatal(err)
	}
	if err := c.exec("open " + dir); err != nil {
		t.Fatal(err)
	}
	if err := c.exec("open " + dir); err == nil {
		t.Error("double open must fail")
	}
	for _, cmd := range []string{
		"gen stock acme 1 200 0.8 7",
		"gen stock beta 1 200 0.8 9",
		"materialize keep as select(acme, close > 0.0) over 1 200",
		"materialize stale as select(beta, close > 0.0) over 1 200",
		"append beta 201 1.2 1.5 100",
		"checkpoint",
	} {
		if err := c.exec(cmd); err != nil {
			t.Fatalf("%q: %v", cmd, err)
		}
	}
	buf.Reset()
	if err := c.exec("close"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "closed "+dir) {
		t.Errorf("close output = %q", buf.String())
	}
	if err := c.exec("close"); err == nil {
		t.Error("close without open database must fail")
	}

	buf.Reset()
	if err := c.exec("open " + dir); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "2 sequence(s), 1 view(s)") {
		t.Errorf("reopen summary = %q", buf.String())
	}
	buf.Reset()
	if err := c.exec("show views"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "keep") {
		t.Errorf("view %q missing after reopen: %q", "keep", out)
	}
	if strings.Contains(out, "stale") {
		t.Errorf("invalidated view resurrected: %q", out)
	}
	// The appended record survived.
	buf.Reset()
	if err := c.exec("describe beta"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "201") {
		t.Errorf("describe beta after reopen = %q", buf.String())
	}
	buf.Reset()
	if err := c.exec("explain analyze select(acme, close > 0.0) over 1 200"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "reopt:") {
		t.Errorf("reopt option lost across open and close:\n%s", buf.String())
	}
}
