package analyzers

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The analyzers only need the shapes of the project types, so the tests
// type-check small stand-in packages from memory — no stdlib imports, no
// export data.
const fakeAlgebra = `package algebra
type Kind int
const (
	KindBase Kind = iota
	KindConst
	KindSelect
	KindProject
	KindPosOffset
	KindValueOffset
	KindAgg
	KindCompose
	KindCollapse
	KindExpand
)
type Node struct{ Kind Kind }
func EvalRange(n *Node, span int) []int { return nil }
`

const fakeStorage = `package storage
type Counter int64
func (c *Counter) Load() int64     { return int64(*c) }
func (c *Counter) Store(v int64)   { *c = Counter(v) }
func (c *Counter) Add(d int64) int64 { *c += Counter(d); return int64(*c) }
type Stats struct {
	SeqPages  Counter
	RandPages Counter
}
type Store interface {
	Scan(span int) int
	Probe(pos int) int
	Stats() *Stats
}
type Snapshot struct{ S Stats }
func (d *Snapshot) Scan(span int) int { return span }
func (d *Snapshot) Probe(pos int) int { return pos }
func (d *Snapshot) Stats() *Stats     { return &d.S }
`

const fakeSeq = `package seq
type Pos = int64
const (
	MinPos Pos = (-1 << 62) / 4
	MaxPos Pos = (1 << 62) / 4
)
func ClampPos(p Pos) Pos {
	if p < MinPos {
		return MinPos
	}
	if p > MaxPos {
		return MaxPos
	}
	return p
}
func EffectivelyUnbounded(p Pos) bool { return p <= MinPos/2 || p >= MaxPos/2 }
type Span struct{ Start, End Pos }
func (s Span) Bounded() bool          { return s.Start > MinPos && s.End < MaxPos }
func (s Span) Contains(p Pos) bool    { return p >= s.Start && p <= s.End }
`

// check type-checks src as a package with the given import path and runs
// all analyzers over it, returning rendered "line: analyzer: message"
// strings.
func check(t *testing.T, importPath, src string) []string {
	t.Helper()
	fset := token.NewFileSet()
	deps := map[string]string{
		"repro/internal/algebra": fakeAlgebra,
		"repro/internal/storage": fakeStorage,
		"repro/internal/seq":     fakeSeq,
	}
	pkgs := make(map[string]*types.Package)
	imp := importerFn(func(path string) (*types.Package, error) {
		if p, ok := pkgs[path]; ok {
			return p, nil
		}
		depSrc, ok := deps[path]
		if !ok {
			return nil, fmt.Errorf("unknown test import %q", path)
		}
		f, err := parser.ParseFile(fset, path+"/dep.go", depSrc, 0)
		if err != nil {
			return nil, err
		}
		p, err := (&types.Config{}).Check(path, fset, []*ast.File{f}, nil)
		if err != nil {
			return nil, err
		}
		pkgs[path] = p
		return p, nil
	})

	f, err := parser.ParseFile(fset, "target.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	pkg, err := (&types.Config{Importer: imp}).Check(importPath, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	pass := &Pass{Fset: fset, Files: []*ast.File{f}, Pkg: pkg, Info: info}
	var out []string
	for _, d := range Run(pass, All()) {
		out = append(out, fmt.Sprintf("%d: %s: %s", fset.Position(d.Pos).Line, d.Analyzer, d.Message))
	}
	return out
}

type importerFn func(string) (*types.Package, error)

func (f importerFn) Import(path string) (*types.Package, error) { return f(path) }

func wantDiags(t *testing.T, got []string, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d diagnostics, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if !strings.Contains(got[i], want[i]) {
			t.Errorf("diagnostic %d = %q, want it to contain %q", i, got[i], want[i])
		}
	}
}

func TestKindSwitchExhaustive(t *testing.T) {
	got := check(t, "repro/internal/demo", `package demo
import "repro/internal/algebra"
func full(k algebra.Kind) int {
	switch k {
	case algebra.KindBase, algebra.KindConst:
		return 0
	case algebra.KindSelect, algebra.KindProject, algebra.KindPosOffset,
		algebra.KindValueOffset, algebra.KindAgg, algebra.KindCollapse, algebra.KindExpand:
		return 1
	case algebra.KindCompose:
		return 2
	default:
		return -1
	}
}
`)
	wantDiags(t, got)
}

func TestKindSwitchMissing(t *testing.T) {
	got := check(t, "repro/internal/demo", `package demo
import "repro/internal/algebra"
func partial(k algebra.Kind) int {
	switch k {
	case algebra.KindBase:
		return 0
	default: // a default arm does not exempt the switch
		return -1
	}
}
`)
	wantDiags(t, got,
		"kindswitch: switch on algebra.Kind does not handle KindAgg, KindCollapse, KindCompose, KindConst, KindExpand, KindPosOffset, KindProject, KindSelect, KindValueOffset")
}

func TestKindSwitchDotImportAndLocalConst(t *testing.T) {
	// Constants reached through a local alias still count as covering
	// their kind; switches over other int types are not flagged.
	got := check(t, "repro/internal/demo", `package demo
import "repro/internal/algebra"
const localBase = algebra.KindBase
func other(x int) int {
	switch x {
	case 1:
		return 0
	}
	return 1
}
`)
	wantDiags(t, got)
}

func TestKindSwitchSuppression(t *testing.T) {
	got := check(t, "repro/internal/demo", `package demo
import "repro/internal/algebra"
func partial(k algebra.Kind) bool {
	//seqvet:ignore kindswitch only block breakers are interesting here
	switch k {
	case algebra.KindAgg, algebra.KindValueOffset, algebra.KindCollapse:
		return true
	}
	return false
}
`)
	wantDiags(t, got)
}

func TestSuppressionNeedsReason(t *testing.T) {
	got := check(t, "repro/internal/demo", `package demo
import "repro/internal/algebra"
func partial(k algebra.Kind) bool {
	//seqvet:ignore kindswitch
	switch k {
	case algebra.KindAgg:
		return true
	}
	return false
}
`)
	wantDiags(t, got,
		"seqvet: seqvet:ignore needs an analyzer name and a reason",
		"kindswitch: switch on algebra.Kind does not handle")
}

func TestRawStoreInExec(t *testing.T) {
	got := check(t, "repro/internal/exec", `package exec
import "repro/internal/storage"
func bad(st storage.Store, d *storage.Snapshot) int {
	return st.Scan(1) + d.Probe(2)
}
func ok(st storage.Store) *storage.Stats {
	return st.Stats() // metadata access is fine
}
`)
	wantDiags(t, got,
		"rawstore: Scan on storage.Store bypasses the metered sequence",
		"rawstore: Probe on storage.Snapshot bypasses the metered sequence")
}

func TestRawStoreOutsideExec(t *testing.T) {
	// The convention only binds the execution engine; the storage tests
	// and benchmarks scan stores directly on purpose.
	got := check(t, "repro/internal/workload", `package workload
import "repro/internal/storage"
func fine(st storage.Store) int { return st.Scan(1) }
`)
	wantDiags(t, got)
}

func TestRawStoreSuppression(t *testing.T) {
	got := check(t, "repro/internal/exec", `package exec
import "repro/internal/storage"
func calibrate(d *storage.Snapshot) int {
	//seqvet:ignore rawstore calibration loop measures the raw store on purpose
	return d.Scan(1)
}
`)
	wantDiags(t, got)
}

func TestOracleOutsideItsHomes(t *testing.T) {
	got := check(t, "repro/internal/server", `package server
import "repro/internal/algebra"
func halo(n *algebra.Node) []int { return algebra.EvalRange(n, 1) }
var eval = algebra.EvalRange
`)
	wantDiags(t, got,
		"3: oracle: algebra.EvalRange is the reference interpreter",
		"4: oracle: algebra.EvalRange is the reference interpreter")
}

func TestOracleInItsHomes(t *testing.T) {
	for _, path := range []string{"repro/internal/planlint", "repro/internal/testgen", "repro/bench"} {
		got := check(t, path, `package home
import "repro/internal/algebra"
func want(n *algebra.Node) []int { return algebra.EvalRange(n, 1) }
`)
		wantDiags(t, got)
	}
}

func TestOracleSuppression(t *testing.T) {
	got := check(t, "repro/internal/demo", `package demo
import "repro/internal/algebra"
func scan(n *algebra.Node) []int {
	//seqvet:ignore oracle a reason
	return algebra.EvalRange(n, 1)
}
`)
	wantDiags(t, got)
}

func TestStatsAtomic(t *testing.T) {
	got := check(t, "repro/internal/demo", `package demo
import "repro/internal/storage"
func good(s *storage.Stats) int64 {
	s.SeqPages.Add(1)
	return s.RandPages.Load()
}
func bad(s *storage.Stats) *storage.Counter {
	x := s.SeqPages // plain read
	_ = x
	return &s.RandPages // address escapes the atomic discipline
}
`)
	wantDiags(t, got,
		"statsatomic: storage.Stats.SeqPages used outside an atomic method call",
		"statsatomic: storage.Stats.RandPages used outside an atomic method call")
}

func TestStatsAtomicSuppression(t *testing.T) {
	got := check(t, "repro/internal/demo", `package demo
import "repro/internal/storage"
func snapshot(s *storage.Stats) storage.Counter {
	//seqvet:ignore statsatomic single-threaded test helper reads the raw counter
	return s.SeqPages
}
`)
	wantDiags(t, got)
}

// TestSeqvetOnRepository is the integration test: the built tool, driven
// by `go vet -vettool`, must come back clean on the repository itself.
func TestSeqvetOnRepository(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and vets the whole repository")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "seqvet")
	build := exec.Command("go", "build", "-o", bin, "./cmd/seqvet")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building seqvet: %v\n%s", err, out)
	}
	vet := exec.Command("go", "vet", "-vettool="+bin, "./...")
	vet.Dir = root
	vet.Env = append(os.Environ(), "GOFLAGS=")
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool=seqvet ./... failed: %v\n%s", err, out)
	}
}

func TestSpanArithUnclamped(t *testing.T) {
	got := check(t, "repro/internal/demo", `package demo
import "repro/internal/seq"
func shift(s seq.Span, d seq.Pos) seq.Pos {
	return s.Start + d
}
func probeNearEnd() seq.Pos {
	return seq.MaxPos - 1
}
`)
	wantDiags(t, got,
		"spanarith: unclamped + on a span endpoint",
		"spanarith: unclamped - on a span endpoint")
}

func TestSpanArithSanctioned(t *testing.T) {
	// Clamped results, comparisons, sentinel-guarded functions,
	// Contains-guarded functions, and arithmetic on plain positions are
	// all allowed.
	got := check(t, "repro/internal/demo", `package demo
import "repro/internal/seq"
func clamped(s seq.Span, d seq.Pos) seq.Pos { return seq.ClampPos(s.Start + d) }
func compared(s seq.Span, d seq.Pos) bool   { return s.Start+d < s.End }
func guarded(s seq.Span, d seq.Pos) seq.Pos {
	if !s.Bounded() {
		return 0
	}
	return s.End + d
}
func contained(s seq.Span, p seq.Pos) seq.Pos {
	if !s.Contains(p) {
		return 0
	}
	return p - s.Start
}
func sentinelChecked(s seq.Span) seq.Pos {
	if s.Start <= seq.MinPos {
		return 0
	}
	return s.Start - 1
}
func plain(a, b seq.Pos) seq.Pos { return a + b }
`)
	wantDiags(t, got)
}

func TestSpanArithSuppression(t *testing.T) {
	got := check(t, "repro/internal/demo", `package demo
import "repro/internal/seq"
func boundary(s seq.Span) seq.Pos {
	//seqvet:ignore spanarith deliberately walking past the end
	return s.End + 1
}
`)
	wantDiags(t, got)
}
