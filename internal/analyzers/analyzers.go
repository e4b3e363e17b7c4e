// Package analyzers implements the project's custom static analyzers —
// the checks behind cmd/seqvet. They enforce repository conventions the
// compiler cannot: exhaustive handling of the algebra.Kind operator
// enum, metered access to base-sequence storage, and atomic use of the
// storage.Stats counters (see docs/INVARIANTS.md).
//
// The package provides a minimal self-contained analysis framework (the
// container this project builds in has no module proxy, so the
// golang.org/x/tools analysis framework is deliberately not used): an
// Analyzer inspects one type-checked package through a Pass and reports
// Diagnostics. cmd/seqvet drives the analyzers under `go vet -vettool`.
//
// Findings can be suppressed with a comment on the offending line or the
// line above it:
//
//	//seqvet:ignore <analyzer> <reason>
//
// The reason is mandatory: a suppression without one is itself reported.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Pass describes a single type-checked package being analyzed.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	diags    []Diagnostic
	suppress map[suppressKey]bool
	badSupp  []Diagnostic
}

type suppressKey struct {
	file     string
	line     int
	analyzer string
}

// Analyzer is one named check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All returns every analyzer, in reporting order.
func All() []*Analyzer {
	return []*Analyzer{KindSwitch, RawStore, StatsAtomic, SpanArith, RuleReg, ReoptCov, Oracle}
}

// Run executes the given analyzers over the pass and returns the
// surviving diagnostics, position-sorted.
func Run(pass *Pass, analyzers []*Analyzer) []Diagnostic {
	pass.buildSuppressions()
	for _, a := range analyzers {
		prev := len(pass.diags)
		a.Run(pass)
		for i := prev; i < len(pass.diags); i++ {
			pass.diags[i].Analyzer = a.Name
		}
	}
	kept := append([]Diagnostic(nil), pass.badSupp...)
	for _, d := range pass.diags {
		if !pass.suppressed(d) {
			kept = append(kept, d)
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].Pos < kept[j].Pos })
	return kept
}

func (p *Pass) report(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// buildSuppressions scans every comment for //seqvet:ignore markers. A
// marker covers its own line and the next line, so it works both as a
// trailing comment and as an annotation above the offending statement.
func (p *Pass) buildSuppressions() {
	p.suppress = make(map[suppressKey]bool)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//seqvet:ignore")
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				pos := p.Fset.Position(c.Pos())
				if len(fields) < 2 {
					p.badSupp = append(p.badSupp, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "seqvet",
						Message:  "seqvet:ignore needs an analyzer name and a reason",
					})
					continue
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					p.suppress[suppressKey{pos.Filename, line, fields[0]}] = true
				}
			}
		}
	}
}

func (p *Pass) suppressed(d Diagnostic) bool {
	pos := p.Fset.Position(d.Pos)
	return p.suppress[suppressKey{pos.Filename, pos.Line, d.Analyzer}]
}

// namedFrom reports whether t (after stripping pointers) is a named type
// declared as pkgPath.name.
func namedFrom(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil &&
		obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// declaredIn reports whether t (after stripping pointers) is a named
// type declared in pkgPath, returning its name.
func declaredIn(t types.Type, pkgPath string) (string, bool) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != pkgPath {
		return "", false
	}
	return obj.Name(), true
}
