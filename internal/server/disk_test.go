package server

import (
	"strings"
	"testing"

	"repro/internal/seq"
	"repro/internal/storage"
	"repro/internal/storage/disk"
)

// diskConfig keeps the tier small so tests exercise eviction and
// multi-page layouts without large data.
func diskConfig() disk.Config {
	return disk.Config{PageSize: 512, RecordsPerPage: 4, PoolPages: 64, CheckpointInterval: -1}
}

// diskServer opens a durable database in dir and attaches a fresh
// server to it.
func diskServer(t *testing.T, dir string, cfg Config) (*Server, *disk.DB) {
	t.Helper()
	db, err := disk.Open(dir, diskConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(cfg)
	if err := srv.AttachDisk(db); err != nil {
		db.Close()
		t.Fatal(err)
	}
	return srv, db
}

func TestDiskServerRoundTrip(t *testing.T) {
	dir := t.TempDir()
	srv, db := diskServer(t, dir, Config{Verify: true})

	if err := srv.CreateSequence("s", testData(t, 40), storage.KindSparse); err != nil {
		t.Fatal(err)
	}
	sess := srv.NewSession("t")
	if _, err := srv.Append("s", 41, seq.Record{seq.Int(41)}); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Query("select(s, v > 38)", seq.NewSpan(1, 50))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 3 {
		t.Fatalf("got %d entries, want 3 (39, 40, 41)", len(res.Entries))
	}
	if _, _, err := sess.Materialize("hi", "select(s, v > 30)", seq.NewSpan(1, 50)); err != nil {
		t.Fatal(err)
	}
	wantEpoch := srv.Epoch()
	srv.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: sequences, appended record, view, and epoch all recover.
	srv2, db2 := diskServer(t, dir, Config{Verify: true})
	defer db2.Close()
	defer srv2.Close()
	if got := srv2.Epoch(); got < wantEpoch {
		t.Fatalf("epoch after reopen = %d, want >= %d", got, wantEpoch)
	}
	if got := srv2.Sequences(); len(got) != 1 || got[0] != "s" {
		t.Fatalf("sequences after reopen = %v", got)
	}
	sess2 := srv2.NewSession("t")
	res, err = sess2.Query("select(s, v > 38)", seq.NewSpan(1, 50))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 3 || res.Entries[2].Pos != 41 {
		t.Fatalf("after reopen: %d entries, want the appended 41 included", len(res.Entries))
	}
	vcs := srv2.ViewCounters()
	if len(vcs) != 1 || vcs[0].Name != "hi" {
		t.Fatalf("views after reopen = %+v", vcs)
	}
	// The recovered view answers matching queries (hit counter moves).
	if _, err := sess2.Query("select(s, v > 30)", seq.NewSpan(1, 50)); err != nil {
		t.Fatal(err)
	}
	vcs = srv2.ViewCounters()
	if vcs[0].Hits == 0 {
		t.Fatalf("recovered view not serving queries: %+v", vcs[0])
	}
}

func TestDiskServerAppendInvalidatesPersistedView(t *testing.T) {
	dir := t.TempDir()
	srv, db := diskServer(t, dir, Config{})
	if err := srv.CreateSequence("s", testData(t, 20), storage.KindSparse); err != nil {
		t.Fatal(err)
	}
	sess := srv.NewSession("t")
	if _, _, err := sess.Materialize("v1", "select(s, v > 5)", seq.NewSpan(1, 30)); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Append("s", 21, seq.Record{seq.Int(21)}); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// The append deleted the persisted view; it must not resurrect.
	srv2, db2 := diskServer(t, dir, Config{})
	defer db2.Close()
	defer srv2.Close()
	if vcs := srv2.ViewCounters(); len(vcs) != 0 {
		t.Fatalf("stale view resurrected after reopen: %+v", vcs)
	}
}

func TestDiskServerDropView(t *testing.T) {
	dir := t.TempDir()
	srv, db := diskServer(t, dir, Config{})
	defer db.Close()
	defer srv.Close()
	if err := srv.CreateSequence("s", testData(t, 10), storage.KindSparse); err != nil {
		t.Fatal(err)
	}
	sess := srv.NewSession("t")
	if _, _, err := sess.Materialize("v1", "select(s, v > 2)", seq.NewSpan(1, 10)); err != nil {
		t.Fatal(err)
	}
	if len(db.Views()) != 1 {
		t.Fatalf("view not persisted: %d", len(db.Views()))
	}
	if err := srv.DropView("v1"); err != nil {
		t.Fatal(err)
	}
	if len(db.Views()) != 0 {
		t.Fatal("persisted view survived DropView")
	}
	if err := srv.DropView("v1"); err == nil || !strings.Contains(err.Error(), "unknown view") {
		t.Fatalf("double drop = %v", err)
	}
}

func TestDiskServerSnapshotIsolationAcrossTier(t *testing.T) {
	dir := t.TempDir()
	srv, db := diskServer(t, dir, Config{})
	defer db.Close()
	defer srv.Close()
	if err := srv.CreateSequence("s", testData(t, 10), storage.KindSparse); err != nil {
		t.Fatal(err)
	}
	// Pin a reader, write behind it, and check the pinned epoch still
	// sees the old state while a fresh session sees the new one.
	epoch := srv.epochs.Pin()
	if _, err := srv.Append("s", 11, seq.Record{seq.Int(11)}); err != nil {
		t.Fatal(err)
	}
	sess := srv.NewSession("t")
	res, err := sess.optimizeAt(epoch, "s", seq.NewSpan(1, 20))
	if err != nil {
		t.Fatal(err)
	}
	out, err := res.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Count() != 10 {
		t.Fatalf("pinned reader sees %d records, want 10", out.Count())
	}
	srv.epochs.Release(epoch)
	qr, err := sess.Query("s", seq.NewSpan(1, 20))
	if err != nil {
		t.Fatal(err)
	}
	if len(qr.Entries) != 11 {
		t.Fatalf("fresh reader sees %d records, want 11", len(qr.Entries))
	}
	if n, _, _ := srv.GCOnce(); n < 0 {
		t.Fatal("GCOnce failed")
	}
}

func TestAttachDiskRejectsPopulatedServer(t *testing.T) {
	db, err := disk.Open(t.TempDir(), diskConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := testServer(t, Config{}, 5)
	defer srv.Close()
	if err := srv.AttachDisk(db); err == nil {
		t.Fatal("AttachDisk after CreateSequence must fail")
	}
	srv2, db2 := diskServer(t, t.TempDir(), Config{})
	defer db2.Close()
	defer srv2.Close()
	if err := srv2.AttachDisk(db2); err == nil {
		t.Fatal("double AttachDisk must fail")
	}
}
