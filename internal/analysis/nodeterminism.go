package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NoDeterminism enforces the bit-identical-results contract of the
// deterministic packages (gar, compress, tensor, stats, transport,
// metrics): the contraction guarantees of the source paper only
// hold if the aggregation kernels are pure functions of their inputs,
// and the wire/quorum layers must produce the same frames and the same
// "first q received" decisions on every replay.
//
// Three bug classes are rejected:
//
//   - wall-clock reads (time.Now / time.Since / time.Until). Timeout
//     deadlines and progress timestamps are genuinely wall-clock;
//     those sites carry //lint:allow-clock with a justification.
//   - unseeded randomness: calls to math/rand (and math/rand/v2)
//     package-level functions, which draw from the shared global
//     source. Constructing an explicitly seeded generator (rand.New,
//     rand.NewSource, ...) stays legal.
//   - map-iteration order flowing into an ordered aggregate: a `range`
//     over a map whose body appends to an outer slice or sends on a
//     channel — the Go-map-order quorum bug fixed in PR 4. Appending
//     is exempt when the very same enclosing block sorts the slice
//     afterwards (sort.* / slices.Sort*). Escape hatch:
//     //lint:allow-maporder, for iterations whose downstream order is
//     genuinely immaterial (e.g. closing every endpoint).
var NoDeterminism = &Analyzer{
	Name: "nodeterminism",
	Doc:  "forbid wall-clock, unseeded rand and map-order leaks in deterministic packages",
	Run:  runNoDeterminism,
}

// deterministicPkgs names the packages (by package name) whose results
// must be bit-identical across runs, parallelism and replay.
var deterministicPkgs = map[string]bool{
	"gar":       true,
	"compress":  true,
	"tensor":    true,
	"stats":     true,
	"transport": true,
	"metrics":   true,
}

func runNoDeterminism(p *Pass) {
	if !deterministicPkgs[p.Pkg.Name()] {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				p.checkClockAndRand(n)
			case *ast.RangeStmt:
				p.checkMapRange(n, f)
			}
			return true
		})
	}
}

func (p *Pass) checkClockAndRand(call *ast.CallExpr) {
	if isPkgFunc(p.Info, call, "time", "Now", "Since", "Until") {
		if !p.Allowed("clock", call.Pos()) {
			p.Reportf(call.Pos(),
				"wall-clock read in a deterministic package (annotate //lint:allow-clock if this is genuinely wall-clock)")
		}
		return
	}
	obj := calleeObj(p.Info, call)
	if obj == nil || obj.Pkg() == nil {
		return
	}
	if path := obj.Pkg().Path(); path != "math/rand" && path != "math/rand/v2" {
		return
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() != nil {
		return // methods on an explicitly constructed *rand.Rand are fine
	}
	if len(obj.Name()) >= 3 && obj.Name()[:3] == "New" {
		return // seeded-generator constructors
	}
	p.Reportf(call.Pos(),
		"%s.%s draws from the unseeded global source; construct a seeded generator instead", obj.Pkg().Name(), obj.Name())
}

// checkMapRange flags map iterations whose body builds an ordered
// aggregate.
func (p *Pass) checkMapRange(rng *ast.RangeStmt, file *ast.File) {
	t := p.Info.Types[rng.X].Type
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	if p.Allowed("maporder", rng.Pos()) {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			if !p.Allowed("maporder", n.Pos()) {
				p.Reportf(n.Arrow,
					"channel send inside a map range: delivery order would follow Go's randomized map iteration")
			}
			return false
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isBuiltin(p.Info, call, "append") || i >= len(n.Lhs) {
					continue
				}
				target, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident)
				if !ok {
					continue
				}
				obj := p.Info.Uses[target]
				if obj == nil {
					obj = p.Info.Defs[target]
				}
				if obj == nil || insideNode(obj.Pos(), rng) {
					continue // loop-local accumulator: order cannot escape
				}
				if p.sortedAfter(rng, obj, file) || p.Allowed("maporder", n.Pos()) {
					continue
				}
				p.Reportf(n.Pos(),
					"append to %q inside a map range: element order would follow Go's randomized map iteration (sort it in this block or annotate //lint:allow-maporder)",
					target.Name)
			}
		}
		return true
	})
}

func insideNode(pos token.Pos, n ast.Node) bool { return pos >= n.Pos() && pos <= n.End() }

// sortedAfter reports whether a statement after rng in the same
// enclosing block passes the appended-to variable into a sort.* or
// slices.Sort* call — the idiom that launders map order back into a
// deterministic sequence.
func (p *Pass) sortedAfter(rng *ast.RangeStmt, obj types.Object, file *ast.File) bool {
	sorted := false
	ast.Inspect(file, func(n ast.Node) bool {
		if sorted {
			return false
		}
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		idx := -1
		for i, stmt := range block.List {
			if stmt == ast.Stmt(rng) {
				idx = i
				break
			}
		}
		if idx < 0 {
			return true
		}
		for _, stmt := range block.List[idx+1:] {
			ast.Inspect(stmt, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || sorted {
					return !sorted
				}
				callee := calleeObj(p.Info, call)
				if callee == nil || callee.Pkg() == nil {
					return true
				}
				if name := callee.Pkg().Name(); name != "sort" && name != "slices" {
					return true
				}
				for _, arg := range call.Args {
					if id, ok := ast.Unparen(arg).(*ast.Ident); ok && p.Info.Uses[id] == obj {
						sorted = true
					}
				}
				return !sorted
			})
		}
		return false
	})
	return sorted
}

func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}
