package analyzers

import (
	"go/ast"
	"strings"
)

const (
	storagePath = "repro/internal/storage"
	execPath    = "repro/internal/exec"
)

// RawStore reports data accesses (Scan, Probe) performed on a
// storage-package value inside the execution engine. Plan leaves must
// read base sequences through the seq.Sequence handed to them at build
// time — which exec.Instrument re-points at a fork of the store counting
// into the leaf's own node (EXPLAIN ANALYZE page attribution) — never by
// reaching down to the raw store, which would bypass the metering and
// silently undercount pages.
var RawStore = &Analyzer{
	Name: "rawstore",
	Doc:  "internal/exec must not scan or probe storage values directly",
	Run:  runRawStore,
}

func runRawStore(pass *Pass) {
	if p := pass.Pkg.Path(); p != execPath && !strings.HasPrefix(p, execPath+"/") {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if sel.Sel.Name != "Scan" && sel.Sel.Name != "Probe" {
				return true
			}
			tv, ok := pass.Info.Types[sel.X]
			if !ok {
				return true
			}
			if name, ok := declaredIn(tv.Type, storagePath); ok {
				pass.report(call.Pos(),
					"%s on storage.%s bypasses the metered sequence; access base data through the plan's seq.Sequence",
					sel.Sel.Name, name)
			}
			return true
		})
	}
}
