// Command seqcli is an interactive shell for the sequence database: it
// runs SEQL queries over ranges, explains the optimizer's plans, keeps
// materialized views and standing queries, and appends records.
//
// Plain seqcli drives an in-process database, which the local-only
// commands (gen, load, save, open, close, checkpoint) fill and persist;
// `seqcli connect host:port` drives a running seqd. Either way the shell
// speaks the wire protocol (docs/PROTOCOL.md): locally over an
// in-process connection to the database's own engine.
//
//	$ seqcli
//	seqproc> gen table1 1
//	seqproc> list
//	seqproc> select(compose(ibm, hp), ibm.close > hp.close) over 1 750
//	seqproc> explain sum(ibm, close, 6) over 200 500
//	seqproc> describe ibm
//	seqproc> quit
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	seqproc "repro"
	"repro/internal/seq"
	"repro/internal/wire"
)

func main() {
	var err error
	switch {
	case len(os.Args) == 3 && os.Args[1] == "connect":
		err = connectRepl(os.Args[2], os.Stdin, os.Stdout)
	case len(os.Args) == 1:
		err = localRepl(seqproc.New(), os.Stdin, os.Stdout)
	default:
		fmt.Fprintln(os.Stderr, "usage: seqcli [connect host:port]")
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "seqcli: %v\n", err)
		os.Exit(1)
	}
}

// connectRepl runs the shell against the seqd daemon at addr.
func connectRepl(addr string, in io.Reader, out io.Writer) error {
	c, err := wire.Dial(addr, "seqcli")
	if err != nil {
		return err
	}
	sh := &shell{c: c, out: out}
	defer sh.shutdown()
	return sh.repl(in, addr)
}

// localRepl runs the shell against db over an in-process connection.
func localRepl(db *seqproc.DB, in io.Reader, out io.Writer) error {
	sh := &shell{db: db, out: out}
	if err := sh.connect(); err != nil {
		return err
	}
	defer sh.shutdown()
	return sh.repl(in, "in-process")
}

// shell is the one command interpreter. Every command but the local-only
// ones is a wire request on c.
type shell struct {
	c   *wire.Client
	out io.Writer
	// db is the in-process database c is connected to; nil for seqd.
	db *seqproc.DB
	// sets are the options set so far, replayed when open or close
	// reconnect the shell to a new database.
	sets [][2]string
}

// connect opens a session on db's engine.
func (sh *shell) connect() error {
	c, err := wire.NewClient(sh.db.Connect(), "seqcli")
	if err != nil {
		return err
	}
	sh.c = c
	for _, kv := range sh.sets {
		if _, err := c.SetOption(kv[0], kv[1]); err != nil {
			return err
		}
	}
	return nil
}

// shutdown ends the session and checkpoints and closes any open durable
// database, so a clean quit never needs WAL replay on the next open.
func (sh *shell) shutdown() {
	sh.c.Close()
	if sh.db != nil {
		if err := sh.db.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "seqcli: close: %v\n", err)
		}
	}
}

func (sh *shell) repl(in io.Reader, where string) error {
	fmt.Fprintf(sh.out, "connected to %s at %s (protocol v%d, epoch %d)\n",
		sh.c.Server(), where, sh.c.Version(), sh.c.Epoch())
	fmt.Fprintln(sh.out, `type "help" for commands`)
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Fprintf(sh.out, "%s> ", sh.c.Server())
		if !scanner.Scan() {
			return scanner.Err()
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if line == "quit" || line == "exit" {
			return nil
		}
		if err := sh.exec(line); err != nil {
			fmt.Fprintf(sh.out, "error: %v\n", err)
		}
	}
}

func (sh *shell) exec(line string) error {
	fields := strings.Fields(line)
	switch fields[0] {
	case "help":
		fmt.Fprint(sh.out, help)
		return nil

	case "list":
		names, err := sh.c.ListSeqs()
		if err != nil {
			return err
		}
		for _, name := range names {
			info, err := sh.c.Describe(name)
			if err != nil {
				return err
			}
			fmt.Fprintf(sh.out, "%-12s %s span=[%d,%d] density=%.2f %s\n",
				name, fieldsString(info.Fields), info.Start, info.End, info.Density, info.Kind)
		}
		return nil

	case "describe":
		if len(fields) != 2 {
			return fmt.Errorf("usage: describe <name>")
		}
		info, err := sh.c.Describe(fields[1])
		if err != nil {
			return err
		}
		fmt.Fprintf(sh.out, "%s: schema=%s span=[%d,%d] density=%.3f kind=%s\n",
			info.Name, fieldsString(info.Fields), info.Start, info.End, info.Density, info.Kind)
		return nil

	case "epoch":
		fmt.Fprintf(sh.out, "epoch %d (as of the last response)\n", sh.c.Epoch())
		return nil

	case "append":
		return sh.append(fields[1:])

	case "materialize":
		rest := strings.TrimSpace(strings.TrimPrefix(line, "materialize"))
		name, q, ok := strings.Cut(rest, " as ")
		name = strings.TrimSpace(name)
		if !ok || name == "" || strings.ContainsAny(name, " \t") {
			return fmt.Errorf("usage: materialize <name> as <seql> over <start> <end>")
		}
		src, span, err := splitOver(strings.TrimSpace(q))
		if err != nil {
			return err
		}
		return sh.note(sh.c.Materialize(name, src, int64(span.Start), int64(span.End)))

	case "show":
		if len(fields) == 2 && fields[1] == "views" {
			return sh.showViews()
		}
		return fmt.Errorf("usage: show views")

	case "drop":
		if len(fields) == 3 && fields[1] == "view" {
			return sh.note(sh.c.DropView(fields[2]))
		}
		return fmt.Errorf("usage: drop view <name>")

	case "set":
		if len(fields) < 3 {
			return fmt.Errorf("usage: set <option> <value> (see help)")
		}
		kv := [2]string{strings.Join(fields[1:len(fields)-1], " "), fields[len(fields)-1]}
		if err := sh.note(sh.c.SetOption(kv[0], kv[1])); err != nil {
			return err
		}
		sh.sets = append(sh.sets, kv)
		return nil

	case "subscribe":
		src, span, err := splitOver(strings.TrimSpace(strings.TrimPrefix(line, "subscribe")))
		if err != nil {
			return err
		}
		ack, err := sh.c.Subscribe(src, int64(span.Start), int64(span.End))
		if err != nil {
			return err
		}
		fmt.Fprintf(sh.out, "subscription %d %s at epoch %d; initial content follows\n",
			ack.SubID, fieldsString(ack.Fields), ack.Epoch)
		return sh.drainDeltas()

	case "unsubscribe":
		if len(fields) != 2 {
			return fmt.Errorf("usage: unsubscribe <id>")
		}
		id, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return fmt.Errorf("bad subscription id %q", fields[1])
		}
		return sh.note(sh.c.Unsubscribe(id))

	case "deltas":
		if len(fields) == 2 && fields[1] == "wait" {
			d, err := sh.c.ReadDelta()
			if err != nil {
				return err
			}
			sh.printDelta(d)
			return sh.drainDeltas()
		}
		if len(fields) != 1 {
			return fmt.Errorf("usage: deltas [wait]")
		}
		if sh.c.PendingDeltas() == 0 {
			fmt.Fprintln(sh.out, "no pending deltas (try a query or epoch turn first, or: deltas wait)")
			return nil
		}
		return sh.drainDeltas()

	case "explain":
		rest := strings.TrimSpace(strings.TrimPrefix(line, "explain"))
		explain := sh.c.Explain
		if strings.HasPrefix(rest, "analyze ") {
			explain = sh.c.Analyze
			rest = strings.TrimSpace(strings.TrimPrefix(rest, "analyze"))
		}
		src, span, err := splitOver(rest)
		if err != nil {
			return err
		}
		return sh.note(explain(src, int64(span.Start), int64(span.End)))

	case "gen", "load", "save", "open", "close", "checkpoint":
		if sh.db == nil {
			return fmt.Errorf("%s acts on the in-process database; run plain seqcli", fields[0])
		}
		return sh.local(fields[0], fields[1:])

	default:
		src, span, err := splitOver(line)
		if err != nil {
			return err
		}
		return sh.run(src, span)
	}
}

// note prints a request's one-line (or plan-text) answer.
func (sh *shell) note(text string, err error) error {
	if err == nil {
		fmt.Fprintln(sh.out, text)
	}
	return err
}

// append adds one record past the end of a sparse sequence, parsing
// each value against the sequence's described schema. In-process, the
// versions the write superseded are reclaimed after the turn, as the
// library's own writes reclaim theirs.
func (sh *shell) append(args []string) error {
	if len(args) < 3 {
		return fmt.Errorf("usage: append <name> <pos> <value...>")
	}
	pos, err := strconv.ParseInt(args[1], 10, 64)
	if err != nil {
		return fmt.Errorf("position must be an integer, got %q", args[1])
	}
	info, err := sh.c.Describe(args[0])
	if err != nil {
		return err
	}
	if len(args)-2 != len(info.Fields) {
		return fmt.Errorf("sequence %s wants %d value(s) for %s, got %d",
			args[0], len(info.Fields), fieldsString(info.Fields), len(args)-2)
	}
	rec := make(seq.Record, len(info.Fields))
	for i, f := range info.Fields {
		if rec[i], err = parseFieldValue(f, args[2+i]); err != nil {
			return err
		}
	}
	epoch, err := sh.c.Append(args[0], pos, rec)
	if err != nil {
		return err
	}
	if sh.db != nil {
		sh.db.GC()
	}
	fmt.Fprintf(sh.out, "appended; visible from epoch %d\n", epoch)
	return nil
}

// parseFieldValue converts one command-line token to the field's type.
func parseFieldValue(f seq.Field, s string) (seq.Value, error) {
	switch f.Type {
	case seq.TInt:
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return seq.Value{}, fmt.Errorf("field %s wants an integer, got %q", f.Name, s)
		}
		return seq.Int(n), nil
	case seq.TFloat:
		x, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return seq.Value{}, fmt.Errorf("field %s wants a number, got %q", f.Name, s)
		}
		return seq.Float(x), nil
	case seq.TBool:
		b, err := strconv.ParseBool(s)
		if err != nil {
			return seq.Value{}, fmt.Errorf("field %s wants true/false, got %q", f.Name, s)
		}
		return seq.Bool(b), nil
	default:
		return seq.Str(s), nil
	}
}

func (sh *shell) showViews() error {
	views, err := sh.c.ListViews()
	if err != nil {
		return err
	}
	if len(views) == 0 {
		fmt.Fprintln(sh.out, "no materialized views")
		return nil
	}
	for _, v := range views {
		validity := fmt.Sprintf("valid from epoch %d", v.FromEpoch)
		if v.InvalidFrom != 0 {
			validity = fmt.Sprintf("valid epochs [%d,%d)", v.FromEpoch, v.InvalidFrom)
		}
		fmt.Fprintf(sh.out, "%-12s span=[%d,%d] records=%d density=%.2f hits=%d misses=%d %s\n",
			v.Name, v.Start, v.End, v.Records, v.Density, v.Hits, v.Misses, validity)
	}
	return nil
}

// drainDeltas prints every delta already queued on the client. Deltas
// arrive during any turn (they are the one push frame in the protocol),
// so this is how the shell surfaces what accumulated since the last
// command.
func (sh *shell) drainDeltas() error {
	for sh.c.PendingDeltas() > 0 {
		d, err := sh.c.ReadDelta()
		if err != nil {
			return err
		}
		sh.printDelta(d)
	}
	return nil
}

func (sh *shell) printDelta(d *wire.Delta) {
	fmt.Fprintf(sh.out, "delta sub=%d epoch=%d region=[%d,%d]: %d record(s)\n",
		d.SubID, d.Epoch, d.Start, d.End, len(d.Entries))
	sh.printEntries(d.Entries, "  ")
}

func (sh *shell) run(src string, span seq.Span) error {
	res, err := sh.c.Query(src, int64(span.Start), int64(span.End))
	if err != nil {
		return err
	}
	fmt.Fprintf(sh.out, "pos")
	for _, f := range res.Fields {
		fmt.Fprintf(sh.out, "\t%s", f.Name)
	}
	fmt.Fprintln(sh.out)
	sh.printEntries(res.Entries, "")
	elapsed := time.Duration(res.ElapsedNs).Round(time.Microsecond)
	fmt.Fprintf(sh.out, "(%d rows @epoch %d, %v exec", len(res.Entries), res.Epoch, elapsed)
	if res.QueueNs > 0 {
		fmt.Fprintf(sh.out, ", %v queued", time.Duration(res.QueueNs).Round(time.Microsecond))
	}
	fmt.Fprintln(sh.out, ")")
	return nil
}

// printEntries prints up to 50 entries, one per line, each prefixed.
func (sh *shell) printEntries(entries []seq.Entry, prefix string) {
	const maxRows = 50
	for i, e := range entries {
		if i == maxRows {
			fmt.Fprintf(sh.out, "%s... (%d more rows)\n", prefix, len(entries)-maxRows)
			break
		}
		fmt.Fprintf(sh.out, "%s%d", prefix, e.Pos)
		for _, v := range e.Rec {
			fmt.Fprintf(sh.out, "\t%s", v.String())
		}
		fmt.Fprintln(sh.out)
	}
}

// splitOver separates "<seql> over <start> <end>".
func splitOver(line string) (string, seq.Span, error) {
	idx := strings.LastIndex(line, " over ")
	if idx < 0 {
		return "", seq.Span{}, fmt.Errorf(`expected "<query> over <start> <end>"`)
	}
	src := strings.TrimSpace(line[:idx])
	parts := strings.Fields(line[idx+len(" over "):])
	if len(parts) != 2 {
		return "", seq.Span{}, fmt.Errorf(`expected "over <start> <end>"`)
	}
	start, err1 := strconv.ParseInt(parts[0], 10, 64)
	end, err2 := strconv.ParseInt(parts[1], 10, 64)
	if err1 != nil || err2 != nil {
		return "", seq.Span{}, fmt.Errorf("bad range %q %q", parts[0], parts[1])
	}
	return src, seq.NewSpan(start, end), nil
}

func fieldsString(fs []seq.Field) string {
	var b strings.Builder
	b.WriteByte('(')
	for i, f := range fs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", f.Name, f.Type)
	}
	b.WriteByte(')')
	return b.String()
}

const help = `commands:
  list                                              list sequences
  describe <name>                                   show schema and meta-data
  epoch                                             show the epoch from the last response
  append <name> <pos> <value...>                    append a record past the end of a sparse sequence
  materialize <name> as <seql> over <start> <end>   store a query result as a shared, reusable view
  show views                                        list views with hit/miss counters and epoch validity
  drop view <name>                                  remove a view for every session
  set parallelism <n>                               bound span-partitioned workers (0 = auto, 1 = serial)
  set reopt on|off                                  monitor runs and replan mid-stream on cost divergence
  set reopt interval <n>                            positions between reoptimization checkpoints
  set reopt threshold <x>                           relative cost error that triggers a replan (0 = every checkpoint)
  set views on|off                                  consider materialized views when planning
  set verify on|off                                 run the full plan verifier on every query
  subscribe <seql> over <start> <end>               register a standing query; deltas follow writes
  unsubscribe <id>                                  cancel a standing query
  deltas [wait]                                     print queued deltas (wait: block for the next)
  <seql> over <start> <end>                         run a query against a pinned snapshot
  explain <seql> over <start> <end>                 show the chosen plan
  explain analyze <seql> over <start> <end>         run with per-operator metrics and server counters (see OBSERVABILITY.md)
  quit

in-process database only (plain seqcli):
  gen stock <name> <start> <end> <density> [seed]   generate a stock series
  gen events <name> <start> <end> <rate> [seed]     generate an event sequence
  gen table1 <scale>                                load the paper's Table 1 data
  load <name> <file.csv>                            load a sequence from CSV (needs a "pos" column)
  save <name> <file.csv>                            write a sequence to CSV
  open <dir>                                        open a durable on-disk database (created if absent)
  close                                             checkpoint and close the open database
  checkpoint                                        force a checkpoint of the open database

SEQL operators:
  select(S, pred)        project(S, expr [as name], ...)
  compose(A, B [, pred]) offset(S, n)   prev(S [,k])   next(S [,k])
  sum|avg|min|max(S, col [, w | lo, hi])   count(S [, w])
  rsum|ravg|rmin|rmax(S, col)  rcount(S)      (running aggregates)
  collapse(S, avg(col), k)  expand(S, k)       (ordering domains)
  scalar functions: abs, min, max, floor, ceil, round
`
