package main

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/reopt"
)

func TestCLISetReopt(t *testing.T) {
	c, buf := newTestCLI(t)
	// set runs one command and returns its reply.
	set := func(cmd string) string {
		t.Helper()
		buf.Reset()
		if err := c.exec(cmd); err != nil {
			t.Fatalf("%q: %v", cmd, err)
		}
		return strings.TrimSpace(buf.String())
	}
	// Enabling without an explicit threshold must not leave the zero
	// value, which would replan at every checkpoint.
	if got, want := set("set reopt on"), fmt.Sprintf("reopt = true (threshold %g)", reopt.DefaultThreshold); got != want {
		t.Errorf("set reopt on = %q, want %q", got, want)
	}
	if got := set("set reopt interval 128"); got != "reopt interval = 128" {
		t.Errorf("set reopt interval = %q", got)
	}
	if got := set("set reopt threshold 0.25"); got != "reopt threshold = 0.25" {
		t.Errorf("set reopt threshold = %q", got)
	}
	// An explicit zero threshold survives re-enabling.
	set("set reopt threshold 0")
	if got := set("set reopt on"); got != "reopt = true (threshold 0)" {
		t.Errorf("explicit zero threshold overwritten: %q", got)
	}
	if got := set("set reopt off"); got != "reopt = false (threshold 0)" {
		t.Errorf("set reopt off = %q", got)
	}
	// Errors.
	for _, bad := range []string{
		"set reopt", "set reopt maybe", "set reopt interval 0",
		"set reopt interval x", "set reopt threshold -1", "set reopt threshold x",
		"set", "set parallelism -1",
	} {
		if err := c.exec(bad); err == nil {
			t.Errorf("%q must fail", bad)
		}
	}
}

// A reopt-enabled session runs queries through the monitored executor
// and EXPLAIN ANALYZE reports the reoptimization record.
func TestCLIReoptRun(t *testing.T) {
	c, buf := newTestCLI(t)
	if err := c.exec("gen table1 1"); err != nil {
		t.Fatal(err)
	}
	if err := c.exec("set reopt on"); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := c.exec("select(compose(ibm, hp), ibm.close > hp.close) over 1 750"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "rows @epoch") {
		t.Errorf("query output = %q", buf.String())
	}
	buf.Reset()
	if err := c.exec("explain analyze sum(ibm, close, 6) over 200 500"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "reopt:") {
		t.Errorf("explain analyze under reopt lacks the reopt record:\n%s", buf.String())
	}
}
