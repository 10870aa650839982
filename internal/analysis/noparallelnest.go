package analysis

import (
	"go/ast"
	"go/types"
)

// NoParallelNest statically rejects entering a parallel region from
// inside a parallel worker body. The runtime guard (parallel.tryEnter)
// makes nesting safe but silently serial: the inner region runs inline
// on one worker, so the mistake costs the whole speedup of the inner
// kernel without failing a single test. This analyzer turns the
// lexical form of that mistake into a lint failure.
//
// A "region entry" is a call to parallel.For, parallel.ForWorker or
// parallel.Do (a parallel.Runner is only built inside For and ForWorker).
// A "worker body" is a function literal passed to one of those calls. Only
// lexical nesting is detected — a body that calls a helper which itself
// enters a region needs the runtime guard (and parallel.Busy) as before.
// Escape hatch:
// //lint:allow-parallelnest, for bodies that intentionally call an
// entry point documented to degrade gracefully.
var NoParallelNest = &Analyzer{
	Name: "noparallelnest",
	Doc:  "reject parallel region entry from inside a parallel worker body",
	Run:  runNoParallelNest,
}

func runNoParallelNest(p *Pass) {
	for _, f := range p.Files {
		// First pass: collect every function literal that is a worker body.
		bodies := make(map[*ast.FuncLit]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !p.isParallelCall(call) {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					bodies[lit] = true
				}
			}
			return true
		})
		if len(bodies) == 0 {
			continue
		}
		// Second pass: flag region entries lexically inside a worker body.
		var inBody int
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok && bodies[lit] {
				inBody++
				ast.Inspect(lit.Body, walk)
				inBody--
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok && inBody > 0 && p.isParallelCall(call) {
				if !p.Allowed("parallelnest", call.Pos()) {
					p.Reportf(call.Pos(),
						"parallel region entered from inside a parallel worker body: the inner region silently serialises")
				}
			}
			return true
		}
		ast.Inspect(f, walk)
	}
}

// isParallelCall reports whether call enters a parallel region.
func (p *Pass) isParallelCall(call *ast.CallExpr) bool {
	obj := calleeObj(p.Info, call)
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Name() != "parallel" {
		return false
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() != nil {
		return false
	}
	switch obj.Name() {
	case "For", "ForWorker", "Do":
		return true
	}
	return false
}
