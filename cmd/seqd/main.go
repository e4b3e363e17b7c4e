// Command seqd is the sequence-database daemon: it serves the engine to
// concurrent clients over the wire protocol of docs/PROTOCOL.md, with
// page-level snapshot isolation between readers and writers.
//
//	$ seqd -listen 127.0.0.1:7744 -table1 2 -load prices=prices.csv
//
// Clients: `seqcli connect 127.0.0.1:7744` for an interactive shell,
// `seqbench -server -server-addr 127.0.0.1:7744` for the load driver,
// or anything speaking the documented protocol. docs/OPERATIONS.md is
// the operator's guide; every flag below is documented there (enforced
// by a test).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	seqproc "repro"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/storage/disk"
	"repro/internal/wire"
	"repro/internal/workload"
)

// loadList collects repeated -load name=file.csv flags.
type loadList []string

func (l *loadList) String() string     { return strings.Join(*l, ",") }
func (l *loadList) Set(v string) error { *l = append(*l, v); return nil }

// options are the daemon's command-line knobs. newFlags binds them to a
// FlagSet; the flag-documentation test enumerates the same set.
type options struct {
	listen      string
	name        string
	workers     int
	gcInterval  time.Duration
	maxFrame    int
	verify      bool
	parallelism int
	table1      int
	loads       loadList

	// Durable-storage tier (docs/STORAGE.md).
	data               string
	pageSize           int
	poolPages          int
	fsyncBatch         bool
	checkpointInterval time.Duration
}

// newFlags binds every seqd flag onto a fresh FlagSet. Kept separate
// from main so the OPERATIONS.md coverage test can enumerate the flags.
func newFlags() (*flag.FlagSet, *options) {
	o := &options{}
	fs := flag.NewFlagSet("seqd", flag.ExitOnError)
	fs.StringVar(&o.listen, "listen", "127.0.0.1:7744", "TCP address to serve the wire protocol on")
	fs.StringVar(&o.name, "name", "seqd", "server name announced in the HelloAck handshake")
	fs.IntVar(&o.workers, "workers", 0, "worker-pool size bounding concurrent reads (plan and run); 0 = GOMAXPROCS")
	fs.DurationVar(&o.gcInterval, "gc-interval", 5*time.Second, "period of the epoch garbage collector reclaiming page versions and invalidated views no pinned reader can see; 0 disables")
	fs.IntVar(&o.maxFrame, "max-frame", wire.DefaultMaxFrame, "maximum accepted wire frame size in bytes")
	fs.BoolVar(&o.verify, "verify", false, "run the planlint invariant verifier on every optimized plan (snapshot/* invariants are always checked)")
	fs.IntVar(&o.parallelism, "parallelism", 0, "default per-session parallelism bound for span-partitioned execution; sessions may override with `set parallelism`")
	fs.IntVar(&o.table1, "table1", 0, "load the paper's Table 1 synthetic sequences (ibm, dec, hp) at this scale; 0 skips")
	fs.Var(&o.loads, "load", "load a sparse base sequence from CSV as name=file.csv (repeatable; the file needs a \"pos\" column)")
	fs.StringVar(&o.data, "data", "", "directory of the durable on-disk database (page files + WAL, docs/STORAGE.md); created if absent, recovered if present; empty serves from memory only")
	fs.IntVar(&o.pageSize, "page-size", 0, "on-disk page size in bytes when creating a new -data database (0 = 8 KiB); an existing database's page size always wins")
	fs.IntVar(&o.poolPages, "pool-pages", 0, "buffer-pool capacity of the -data tier in pages (0 = 1024)")
	fs.BoolVar(&o.fsyncBatch, "fsync-batch", false, "group WAL fsyncs across appends (group commit): higher append throughput, but a crash may lose the last few acknowledged appends")
	fs.DurationVar(&o.checkpointInterval, "checkpoint-interval", 0, "background checkpoint period of the -data tier (0 = 15s default; negative disables background checkpoints)")
	return fs, o
}

// serverConfig maps the flags onto the server's configuration.
func (o *options) serverConfig() server.Config {
	return server.Config{
		Name:       o.name,
		Workers:    o.workers,
		MaxFrame:   o.maxFrame,
		GCInterval: o.gcInterval,
		Options:    core.Options{Parallelism: o.parallelism, Verify: o.verify},
	}
}

func main() {
	fs, o := newFlags()
	fs.Parse(os.Args[1:])

	srv := server.New(o.serverConfig())
	ddb, err := attachData(srv, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "seqd: %v\n", err)
		os.Exit(1)
	}
	if err := loadData(srv, o); err != nil {
		fmt.Fprintf(os.Stderr, "seqd: %v\n", err)
		os.Exit(1)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "seqd: shutting down")
		srv.Close()
	}()

	fmt.Fprintf(os.Stderr, "seqd: serving %d sequence(s) on %s\n", len(srv.Sequences()), o.listen)
	serveErr := srv.ListenAndServe(o.listen)
	// Close the durable tier after the server drained: a final
	// checkpoint lands so the next boot needs no WAL replay.
	if ddb != nil {
		if err := ddb.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "seqd: close data: %v\n", err)
			os.Exit(1)
		}
	}
	if serveErr != nil {
		fmt.Fprintf(os.Stderr, "seqd: %v\n", serveErr)
		os.Exit(1)
	}
}

// attachData opens and attaches the durable storage tier when -data is
// set, returning the database so main can close it after shutdown.
func attachData(srv *server.Server, o *options) (*disk.DB, error) {
	if o.data == "" {
		return nil, nil
	}
	ddb, err := disk.Open(o.data, disk.Config{
		PageSize:           o.pageSize,
		PoolPages:          o.poolPages,
		BatchFsync:         o.fsyncBatch,
		CheckpointInterval: o.checkpointInterval,
	})
	if err != nil {
		return nil, err
	}
	if err := srv.AttachDisk(ddb); err != nil {
		ddb.Close()
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "seqd: data directory %s at epoch %d (%d sequence(s), %d view(s))\n",
		o.data, ddb.Epoch(), len(ddb.Names()), len(ddb.Views()))
	return ddb, nil
}

// loadData registers the startup sequences: Table 1 synthetics and CSV
// loads. Sequences already recovered from a -data directory are kept as
// recovered — the same boot line works for the first and every later
// start.
func loadData(srv *server.Server, o *options) error {
	existing := make(map[string]bool)
	for _, name := range srv.Sequences() {
		existing[name] = true
	}
	if o.table1 > 0 {
		ibm, dec, hp, err := workload.Table1(int64(o.table1))
		if err != nil {
			return err
		}
		for _, s := range []struct {
			name string
			data *seqproc.SequenceData
		}{{"ibm", ibm}, {"dec", dec}, {"hp", hp}} {
			if existing[s.name] {
				continue
			}
			if err := srv.CreateSequence(s.name, s.data, storage.KindSparse); err != nil {
				return err
			}
		}
	}
	for _, spec := range o.loads {
		name, file, ok := strings.Cut(spec, "=")
		if !ok || name == "" || file == "" {
			return fmt.Errorf("-load wants name=file.csv, got %q", spec)
		}
		if existing[name] {
			continue
		}
		f, err := os.Open(file)
		if err != nil {
			return err
		}
		data, err := seqproc.ReadCSV(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("load %q: %w", spec, err)
		}
		if err := srv.CreateSequence(name, data, storage.KindSparse); err != nil {
			return err
		}
	}
	return nil
}
