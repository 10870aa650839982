package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// BoundedAlloc enforces the WIRE.md hardening rule in the transport
// and compress packages: a frame-decoding path must not allocate a
// slice whose size derives from wire input without first checking that
// size against a bound — otherwise a 15-byte header can reserve 512
// MiB on the receiver's behalf.
//
// Scope: functions that plausibly consume wire bytes — the name
// matches (?i)decode|read|parse|unpack|unmarshal|hello, or a []byte
// parameter is named like wire input (payload, data, body, buf,
// frame, raw). Inside those, every make([]T, n) / make([]T, len, cap)
// — and every tensor.Get(n), the same reservation taken from the
// vector free list — whose size is not a constant and not derived from
// len/cap of an in-memory value must be preceded (within the same
// function) by a condition — if/for/switch — that mentions the size
// variable. The
// check is lexical, not a value analysis: it catches the historically
// observed bug shape (allocate first, validate later or never) while
// accepting every bounded-staging idiom the codec uses. Escape hatch:
// //lint:allow-unbounded, for sizes validated by the caller.
var BoundedAlloc = &Analyzer{
	Name: "boundedalloc",
	Doc:  "flag wire-derived make([]T, n) / tensor.Get(n) without a preceding bound check in decode paths",
	Run:  runBoundedAlloc,
}

var (
	decodeFuncRe  = regexp.MustCompile(`(?i)decode|read|parse|unpack|unmarshal|hello`)
	wireParamRe   = regexp.MustCompile(`^(payload|data|body|buf|frame|raw|wire)$`)
	boundedScopes = map[string]bool{"transport": true, "compress": true}
)

func runBoundedAlloc(p *Pass) {
	if !boundedScopes[p.Pkg.Name()] {
		return
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !p.isDecodeFunc(fd) {
				continue
			}
			p.checkAllocs(fd)
		}
	}
}

// isDecodeFunc reports whether fd plausibly consumes wire input.
func (p *Pass) isDecodeFunc(fd *ast.FuncDecl) bool {
	if decodeFuncRe.MatchString(fd.Name.Name) {
		return true
	}
	for _, field := range fd.Type.Params.List {
		t := p.Info.Types[field.Type].Type
		if t == nil {
			continue
		}
		slice, ok := t.Underlying().(*types.Slice)
		if !ok {
			continue
		}
		basic, ok := slice.Elem().Underlying().(*types.Basic)
		if !ok || basic.Kind() != types.Byte {
			continue
		}
		for _, name := range field.Names {
			if wireParamRe.MatchString(name.Name) {
				return true
			}
		}
	}
	return false
}

// checkAllocs inspects every slice-make and every tensor.Get in fd
// against the bound-check requirement.
func (p *Pass) checkAllocs(fd *ast.FuncDecl) {
	guards := p.collectGuards(fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		what, sizes := p.allocSizes(call)
		if sizes == nil || p.Allowed("unbounded", call.Pos()) {
			return true
		}
		for _, size := range sizes {
			for _, id := range p.unboundedIdents(size, guards, call.Pos()) {
				p.Reportf(call.Pos(),
					"%s sized by %q without a preceding bound check in this decode path (WIRE.md hardening rule; annotate //lint:allow-unbounded if the caller validates it)",
					what, id.Name)
			}
		}
		return true
	})
}

// allocSizes returns the size arguments of a call that reserves a slice —
// make([]T, len[, cap]) or tensor.Get(n) — and what to call it; nil for
// any other call.
func (p *Pass) allocSizes(call *ast.CallExpr) (what string, sizes []ast.Expr) {
	if isPkgFunc(p.Info, call, "tensor", "Get") && len(call.Args) == 1 {
		return "tensor.Get", call.Args
	}
	if !isBuiltin(p.Info, call, "make") || len(call.Args) < 2 {
		return "", nil
	}
	t := p.Info.Types[call.Args[0]].Type
	if t == nil {
		return "", nil
	}
	if _, isSlice := t.Underlying().(*types.Slice); !isSlice {
		return "", nil
	}
	return "make", call.Args[1:]
}

// collectGuards maps every variable mentioned in a condition (if/for
// condition, if init, switch tag/init, case expression) to the
// positions of those conditions.
func (p *Pass) collectGuards(fd *ast.FuncDecl) map[types.Object][]token.Pos {
	guards := make(map[types.Object][]token.Pos)
	addExpr := func(e ast.Expr, at token.Pos) {
		if e == nil {
			return
		}
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := p.Info.Uses[id]; obj != nil {
					guards[obj] = append(guards[obj], at)
				}
			}
			return true
		})
	}
	addStmt := func(s ast.Stmt, at token.Pos) {
		if s == nil {
			return
		}
		ast.Inspect(s, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := p.Info.Uses[id]; obj != nil {
					guards[obj] = append(guards[obj], at)
				}
			}
			return true
		})
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			addStmt(n.Init, n.Pos())
			addExpr(n.Cond, n.Pos())
		case *ast.ForStmt:
			addExpr(n.Cond, n.Pos())
		case *ast.SwitchStmt:
			addStmt(n.Init, n.Pos())
			addExpr(n.Tag, n.Pos())
		case *ast.CaseClause:
			for _, e := range n.List {
				addExpr(e, n.Pos())
			}
		}
		return true
	})
	return guards
}

// unboundedIdents returns the identifiers in the size expression that
// are neither constant, nor len/cap-derived, nor guarded by a
// condition positioned before the allocation.
func (p *Pass) unboundedIdents(size ast.Expr, guards map[types.Object][]token.Pos, before token.Pos) []*ast.Ident {
	if tv, ok := p.Info.Types[size]; ok && tv.Value != nil {
		return nil // constant size
	}
	var out []*ast.Ident
	ast.Inspect(size, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok &&
			(isBuiltin(p.Info, call, "len") || isBuiltin(p.Info, call, "cap")) {
			return false // sizes of in-memory values are already paid for
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := p.Info.Uses[id]
		v, isVar := obj.(*types.Var)
		if !isVar || v.IsField() {
			return true // constants, types, fields of checked structs
		}
		for _, at := range guards[obj] {
			if at < before {
				return true
			}
		}
		out = append(out, id)
		return true
	})
	return out
}
