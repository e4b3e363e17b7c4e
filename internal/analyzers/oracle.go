package analyzers

import (
	"go/ast"
	"go/types"
	"strings"
)

// oracleHomes are the packages that may call the reference interpreter:
// the algebra itself, the plan verifier and the test generators that
// check the engine against it, and the benchmark's answer checker.
var oracleHomes = []string{algebraPath, "repro/internal/planlint", "repro/internal/testgen", "repro/bench"}

// Oracle reports uses of algebra.EvalRange — the reference interpreter
// of the paper's denotational semantics — outside its homes and test
// files. The interpreter is the oracle the engine is checked against;
// production reads, view maintenance and subscription deltas are planned
// and run by the optimizer, so an oracle call there is a second
// evaluation machinery nothing checks.
var Oracle = &Analyzer{
	Name: "oracle",
	Doc:  "algebra.EvalRange is called only by its oracle homes and tests",
	Run:  runOracle,
}

func runOracle(pass *Pass) {
	path := pass.Pkg.Path()
	for _, home := range oracleHomes {
		if path == home || strings.HasPrefix(path, home+"/") {
			return
		}
	}
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[id].(*types.Func)
			if ok && fn.Name() == "EvalRange" && fn.Pkg() != nil && fn.Pkg().Path() == algebraPath {
				pass.report(id.Pos(), "algebra.EvalRange is the reference interpreter; plan and run through the engine (core.Optimize)")
			}
			return true
		})
	}
}
