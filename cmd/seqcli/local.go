package main

// The local-only commands: they act on the in-process database that
// owns the shell's engine, not over the connection.

import (
	"fmt"
	"os"
	"strconv"

	seqproc "repro"
	"repro/internal/seq"
	"repro/internal/workload"
)

// local runs a local-only command.
func (sh *shell) local(cmd string, args []string) error {
	switch cmd {
	case "gen":
		return sh.gen(args)
	case "load":
		return sh.load(args)
	case "save":
		return sh.save(args)
	case "open":
		// Switch to a durable database rooted at dir (created when
		// absent, recovered when present): everything created, appended
		// or materialized afterwards persists across sessions.
		if len(args) != 1 {
			return fmt.Errorf("usage: open <dir>")
		}
		if dir, ok := sh.db.Persistent(); ok {
			return fmt.Errorf("database %s is open; run close first", dir)
		}
		db, err := seqproc.Open(args[0], nil)
		if err != nil {
			return err
		}
		if err := sh.reconnect(db); err != nil {
			return err
		}
		fmt.Fprintf(sh.out, "opened %s: %d sequence(s), %d view(s)\n",
			args[0], len(db.Sequences()), len(db.ListViews()))
		return nil
	case "close":
		// Checkpoint and close the durable database, returning the shell
		// to a fresh in-memory one.
		if len(args) != 0 {
			return fmt.Errorf("usage: close")
		}
		durable := sh.db
		dir, ok := durable.Persistent()
		if !ok {
			return fmt.Errorf("no durable database open")
		}
		if err := sh.reconnect(seqproc.New()); err != nil {
			return err
		}
		if err := durable.Close(); err != nil {
			return err
		}
		fmt.Fprintf(sh.out, "closed %s\n", dir)
		return nil
	default: // checkpoint
		if len(args) != 0 {
			return fmt.Errorf("usage: checkpoint")
		}
		if err := sh.db.Checkpoint(); err != nil {
			return err
		}
		fmt.Fprintln(sh.out, "checkpointed")
		return nil
	}
}

// reconnect moves the shell's session to db.
func (sh *shell) reconnect(db *seqproc.DB) error {
	sh.c.Close()
	sh.db = db
	return sh.connect()
}

func (sh *shell) gen(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: gen stock|events|table1 ...")
	}
	switch args[0] {
	case "table1":
		if len(args) != 2 {
			return fmt.Errorf("usage: gen table1 <scale>")
		}
		scale, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil {
			return err
		}
		ibm, dec, hp, err := workload.Table1(scale)
		if err != nil {
			return err
		}
		for name, data := range map[string]*seq.Materialized{"ibm": ibm, "dec": dec, "hp": hp} {
			kind := seqproc.Sparse
			if name == "hp" {
				kind = seqproc.Dense
			}
			if err := sh.db.CreateSequence(name, data, kind); err != nil {
				return err
			}
		}
		fmt.Fprintln(sh.out, "created ibm, dec, hp")
		return nil
	case "stock", "events":
		if len(args) < 5 {
			return fmt.Errorf("usage: gen %s <name> <start> <end> <density> [seed]", args[0])
		}
		start, err1 := strconv.ParseInt(args[2], 10, 64)
		end, err2 := strconv.ParseInt(args[3], 10, 64)
		density, err3 := strconv.ParseFloat(args[4], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return fmt.Errorf("bad numeric arguments")
		}
		var seed int64 = 1
		if len(args) > 5 {
			if seed, err1 = strconv.ParseInt(args[5], 10, 64); err1 != nil {
				return err1
			}
		}
		var data *seq.Materialized
		var err error
		if args[0] == "stock" {
			data, err = workload.Stock(workload.StockConfig{
				Name: args[1], Span: seq.NewSpan(start, end), Density: density, Seed: seed,
			})
		} else {
			data, err = workload.Events(seq.NewSpan(start, end), density, nil, seed)
		}
		if err != nil {
			return err
		}
		if err := sh.db.CreateSequence(args[1], data, seqproc.Sparse); err != nil {
			return err
		}
		fmt.Fprintf(sh.out, "created %s with %d records\n", args[1], data.Count())
		return nil
	default:
		return fmt.Errorf("unknown generator %q", args[0])
	}
}

// load reads a CSV file into a new sparse base sequence.
func (sh *shell) load(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: load <name> <file.csv>")
	}
	f, err := os.Open(args[1])
	if err != nil {
		return err
	}
	defer f.Close()
	data, err := seqproc.ReadCSV(f)
	if err != nil {
		return err
	}
	if err := sh.db.CreateSequence(args[0], data, seqproc.Sparse); err != nil {
		return err
	}
	info := data.Info()
	fmt.Fprintf(sh.out, "loaded %s: %d records, span %v, schema %v\n",
		args[0], data.Count(), info.Span, info.Schema)
	return nil
}

// save writes a base sequence to a CSV file.
func (sh *shell) save(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: save <name> <file.csv>")
	}
	q, err := sh.db.Query(args[0])
	if err != nil {
		return err
	}
	info, err := sh.db.Describe(args[0])
	if err != nil {
		return err
	}
	res, err := q.Run(info.Span)
	if err != nil {
		return err
	}
	f, err := os.Create(args[1])
	if err != nil {
		return err
	}
	defer f.Close()
	if err := seqproc.WriteCSV(f, res.Materialized()); err != nil {
		return err
	}
	fmt.Fprintf(sh.out, "wrote %d records to %s\n", res.Count(), args[1])
	return nil
}
