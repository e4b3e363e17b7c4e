package disk

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/seq"
	"repro/internal/storage"
)

// The recovery fuzz: drive a DB and an in-memory shadow through random
// mutations, kill the DB at a random I/O operation — sometimes with a
// torn (partial) write — reopen, and verify record-for-record against
// the shadow.
//
// Acked semantics: every operation that returned success before the kill
// must survive recovery exactly (appends fsync before acking in these
// runs). The single operation the injected failure interrupted is a
// "maybe": its WAL record may or may not have become durable before the
// "crash", so recovery may surface either the pre-op or post-op state —
// both are accepted, anything else is a bug.

var recoverySeeds = flag.Int("disk.seeds", 60, "number of random seeds (kill-point schedules) for the recovery fuzz harness")

// shadowSeq mirrors one sequence's acked logical state.
type shadowSeq struct {
	kind    storage.Kind
	entries []seq.Entry
}

func (s *shadowSeq) clone() *shadowSeq {
	return &shadowSeq{kind: s.kind, entries: append([]seq.Entry(nil), s.entries...)}
}

// shadowDB mirrors the whole database's acked state.
type shadowDB struct {
	seqs  map[string]*shadowSeq
	views map[string][]string // view name -> bases
	n     int                 // sequences ever created (names)
}

func newShadow() *shadowDB {
	return &shadowDB{seqs: make(map[string]*shadowSeq), views: make(map[string][]string)}
}

func (s *shadowDB) clone() *shadowDB {
	c := newShadow()
	c.n = s.n
	for k, v := range s.seqs {
		c.seqs[k] = v.clone()
	}
	for k, v := range s.views {
		c.views[k] = append([]string(nil), v...)
	}
	return c
}

func (s *shadowDB) dropViewsReading(base string) {
	for name, bases := range s.views {
		for _, b := range bases {
			if b == base {
				delete(s.views, name)
				break
			}
		}
	}
}

// fuzzOp is one randomly chosen mutation, applicable to the real DB and
// to a shadow — the same op value applied to both keeps them honest.
type fuzzOp struct {
	kind    int // 0 create, 1 append, 2 reorganize, 3 drop, 4 put view, 5 drop view
	name    string
	entries []seq.Entry
	entry   seq.Entry
	storeK  storage.Kind
	bases   []string
}

func pickSeq(rng *rand.Rand, s *shadowDB) string {
	names := make([]string, 0, len(s.seqs))
	for n := range s.seqs {
		names = append(names, n)
	}
	if len(names) == 0 {
		return ""
	}
	// Map iteration order is random but rng-independent; sort for
	// reproducibility.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names[rng.Intn(len(names))]
}

func genOp(rng *rand.Rand, s *shadowDB) *fuzzOp {
	for tries := 0; tries < 10; tries++ {
		switch k := rng.Intn(12); {
		case k < 3: // create
			name := fmt.Sprintf("s%d", s.n)
			n := rng.Intn(30)
			entries := make([]seq.Entry, n)
			pos := seq.Pos(1)
			for i := range entries {
				entries[i] = seq.Entry{Pos: pos, Rec: seq.Record{seq.Int(int64(pos))}}
				pos += seq.Pos(1 + rng.Intn(3))
			}
			kind := storage.KindSparse
			if rng.Intn(3) == 0 {
				kind = storage.KindDense
			}
			return &fuzzOp{kind: 0, name: name, entries: entries, storeK: kind}
		case k < 8: // append
			name := pickSeq(rng, s)
			if name == "" || s.seqs[name].kind != storage.KindSparse {
				continue
			}
			pos := seq.Pos(1)
			if es := s.seqs[name].entries; len(es) > 0 {
				pos = es[len(es)-1].Pos + seq.Pos(1+rng.Intn(3))
			}
			return &fuzzOp{kind: 1, name: name, entry: seq.Entry{Pos: pos, Rec: seq.Record{seq.Int(int64(pos))}}}
		case k < 9: // reorganize
			name := pickSeq(rng, s)
			if name == "" {
				continue
			}
			kind := storage.KindSparse
			if rng.Intn(2) == 0 {
				kind = storage.KindDense
			}
			return &fuzzOp{kind: 2, name: name, storeK: kind}
		case k < 10: // drop sequence
			name := pickSeq(rng, s)
			if name == "" || len(s.seqs) < 2 {
				continue
			}
			return &fuzzOp{kind: 3, name: name}
		case k < 11: // put view
			base := pickSeq(rng, s)
			if base == "" {
				continue
			}
			return &fuzzOp{
				kind: 4, name: "v_" + base, bases: []string{base},
				entries: []seq.Entry{{Pos: 1, Rec: seq.Record{seq.Int(int64(len(s.seqs[base].entries)))}}},
			}
		default: // drop view
			for v := range s.views {
				return &fuzzOp{kind: 5, name: v}
			}
			continue
		}
	}
	return nil
}

func applyToShadow(s *shadowDB, op *fuzzOp) {
	switch op.kind {
	case 0:
		s.seqs[op.name] = &shadowSeq{kind: op.storeK, entries: append([]seq.Entry(nil), op.entries...)}
		s.n++
	case 1:
		sq := s.seqs[op.name]
		sq.entries = append(sq.entries, op.entry)
		s.dropViewsReading(op.name)
	case 2:
		s.seqs[op.name].kind = op.storeK
	case 3:
		delete(s.seqs, op.name)
		s.dropViewsReading(op.name)
	case 4:
		s.views[op.name] = append([]string(nil), op.bases...)
	case 5:
		delete(s.views, op.name)
	}
}

func applyToDB(t *testing.T, db *DB, op *fuzzOp, schema *seq.Schema) error {
	t.Helper()
	switch op.kind {
	case 0:
		m, err := seq.NewMaterialized(schema, op.entries)
		if err != nil {
			t.Fatal(err)
		}
		return db.CreateSequence(op.name, m, op.storeK)
	case 1:
		_, err := db.Append(op.name, op.entry)
		return err
	case 2:
		_, err := db.Reorganize(op.name, op.storeK)
		return err
	case 3:
		return db.DropSequence(op.name)
	case 4:
		return db.PutViewAt(&View{
			Name: op.name, SEQL: "select " + op.bases[0], Epoch: db.Epoch(),
			Bases: op.bases, Entries: op.entries,
		})
	default:
		return db.DropViewAt(op.name, db.Epoch()+1)
	}
}

// matches reports whether the recovered DB equals the shadow,
// record-for-record.
func matches(t *testing.T, db *DB, s *shadowDB) (bool, string) {
	t.Helper()
	names := db.Names()
	if len(names) != len(s.seqs) {
		return false, fmt.Sprintf("db has %d sequences, shadow %d", len(names), len(s.seqs))
	}
	for _, name := range names {
		sh, ok := s.seqs[name]
		if !ok {
			return false, fmt.Sprintf("db has unexpected sequence %q", name)
		}
		sq := mustSeq(t, db, name)
		if sq.Kind() != sh.kind {
			return false, fmt.Sprintf("%q kind %v, shadow %v", name, sq.Kind(), sh.kind)
		}
		got := collect(t, sq.Latest(), seq.AllSpan)
		if !entriesEqual(got, sh.entries) {
			return false, fmt.Sprintf("%q has %d records, shadow %d", name, len(got), len(sh.entries))
		}
	}
	views := db.Views()
	if len(views) != len(s.views) {
		return false, fmt.Sprintf("db has %d views, shadow %d", len(views), len(s.views))
	}
	for _, v := range views {
		if _, ok := s.views[v.Name]; !ok {
			return false, fmt.Sprintf("db has unexpected view %q", v.Name)
		}
	}
	return true, ""
}

func TestRecoveryFuzz(t *testing.T) {
	iters := *recoverySeeds
	if testing.Short() {
		iters = 12
	}
	schema := testSchema(t)
	for it := 0; it < iters; it++ {
		it := it
		t.Run(fmt.Sprintf("seed=%d", it), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(it) * 7919))
			dir := t.TempDir()

			// Kill switch: fail the killAt'th hooked I/O op, half the time
			// as a torn (partial) write.
			killAt := 1 + rng.Intn(40)
			torn := rng.Intn(2) == 0
			tornN := rng.Intn(64)
			ops := 0
			errInjected := errors.New("injected failure")
			hook := func(op string) error {
				ops++
				if ops == killAt {
					if torn && op == "wal.write" {
						return &PartialWriteError{N: tornN}
					}
					return fmt.Errorf("%w at op %d (%s)", errInjected, killAt, op)
				}
				return nil
			}
			cfg := Config{
				PageSize:           512,
				RecordsPerPage:     1 + rng.Intn(6),
				PoolPages:          8 + rng.Intn(32),
				CheckpointInterval: -1,
				Hook:               hook,
			}
			db, err := Open(dir, cfg)
			if err != nil {
				t.Fatal(err)
			}

			shadow := newShadow()
			var maybe *shadowDB // shadow + the interrupted op, if any
			for step := 0; step < 60; step++ {
				if rng.Intn(12) == 0 {
					if err := db.Checkpoint(); err != nil {
						maybe = shadow.clone() // checkpoint mutates no logical state
						break
					}
					continue
				}
				if rng.Intn(15) == 0 {
					db.GC(db.Epoch())
					db.DropCaches()
					continue
				}
				op := genOp(rng, shadow)
				if op == nil {
					continue
				}
				if err := applyToDB(t, db, op, schema); err != nil {
					if db.failed.Load() {
						maybe = shadow.clone()
						applyToShadow(maybe, op)
						break
					}
					// The injected failure can land in an op's prepare
					// stage — e.g. an eviction writeback while repacking
					// before WAL logging — where it cleanly rejects the op
					// and leaves the DB healthy. The shadow doesn't apply
					// the op either; keep driving.
					if errors.Is(err, errInjected) {
						continue
					}
					t.Fatalf("step %d: unexpected op failure: %v", step, err)
				}
				applyToShadow(shadow, op)
			}
			kill(db)

			db2, err := Open(dir, Config{PageSize: 512, CheckpointInterval: -1})
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			defer db2.Close()
			ok, why := matches(t, db2, shadow)
			if !ok && maybe != nil {
				var whyMaybe string
				ok, whyMaybe = matches(t, db2, maybe)
				why = why + "; with interrupted op applied: " + whyMaybe
			}
			if !ok {
				t.Fatalf("recovered state matches neither acked shadow nor acked+interrupted (killAt=%d torn=%v): %s",
					killAt, torn, why)
			}

			// Recovery must itself be idempotent: reopen again, same state.
			if err := db2.Close(); err != nil {
				t.Fatal(err)
			}
			db3, err := Open(dir, Config{PageSize: 512, CheckpointInterval: -1})
			if err != nil {
				t.Fatalf("second recovery failed: %v", err)
			}
			defer db3.Close()
			if ok1, _ := matches(t, db3, shadow); !ok1 {
				if maybe == nil {
					t.Fatal("state changed across a clean close/reopen")
				}
				if ok2, why2 := matches(t, db3, maybe); !ok2 {
					t.Fatalf("state changed across a clean close/reopen: %s", why2)
				}
			}
		})
	}
}
