package parallel_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/parallel"
	"repro/internal/seq"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/wire"
)

// TestWorkerPanicCostsOneRequest: a panic in a partition worker of a
// K = 2 read fails that read with a typed error, and the same server
// answers the next read.
func TestWorkerPanicCostsOneRequest(t *testing.T) {
	const n = 40000
	entries := make([]seq.Entry, n)
	for i := range entries {
		entries[i] = seq.Entry{Pos: seq.Pos(i + 1), Rec: seq.Record{seq.Int(int64(i + 1))}}
	}
	data := seq.MustMaterialized(seq.MustSchema(seq.Field{Name: "v", Type: seq.TInt}), entries)
	srv := server.New(server.Config{})
	defer srv.Close()
	if err := srv.CreateSequence("s", data, storage.KindSparse); err != nil {
		t.Fatal(err)
	}
	sess := srv.NewSession("panic")
	if _, err := sess.SetOption("parallelism", "2"); err != nil {
		t.Fatal(err)
	}
	const q = "select(sum(s, v, 5), sum > 10)"
	span := seq.NewSpan(1, n)
	if text, _, err := sess.Explain(q, span); err != nil || !strings.Contains(text, "parallel: K=2") {
		t.Fatalf("the read is not split in two (%v):\n%s", err, text)
	}
	want, err := sess.Query(q, span)
	if err != nil {
		t.Fatal(err)
	}

	parallel.SetPartitionStart(func(part int) {
		if part == 1 {
			panic("injected")
		}
	})
	_, err = sess.Query(q, span)
	parallel.SetPartitionStart(nil)
	var se *server.Error
	var wp *parallel.WorkerPanic
	if !errors.As(err, &se) || se.Code != wire.CodeInternal || !errors.As(err, &wp) || wp.Partition != 1 {
		t.Fatalf("a panicking partition returned %v, want an internal error carrying the panic of partition 1", err)
	}

	res, err := sess.Query(q, span)
	if err != nil {
		t.Fatalf("the read after the panic: %v", err)
	}
	if len(res.Entries) != len(want.Entries) {
		t.Errorf("the read after the panic returned %d entries, want %d", len(res.Entries), len(want.Entries))
	}
}
