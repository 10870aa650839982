package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check. Run inspects a type-checked
// package through its Pass and reports diagnostics; it must not retain
// the Pass past the call.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -run filters.
	Name string
	// Doc is a one-paragraph description (first line = summary).
	Doc string
	// Run performs the check over one package.
	Run func(*Pass)
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Analyzer is the reporting analyzer's name.
	Analyzer string
	// Message states the violated invariant at this site.
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Pass carries one package's syntax and types through an analyzer run.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps positions for every file in the pass.
	Fset *token.FileSet
	// Files are the package's parsed non-test Go files.
	Files []*ast.File
	// Pkg is the source-checked package.
	Pkg *types.Package
	// Info holds the type-checker's facts for Files.
	Info *types.Info

	allow map[string]map[int]bool // filename → line → has some allow; key includes directive
	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Allowed reports whether the given position is covered by a
// `//lint:allow-<key>` directive: a directive suppresses findings on
// its own source line and on the line directly below it (so it can
// trail the statement or sit on its own line above).
func (p *Pass) Allowed(key string, pos token.Pos) bool {
	position := p.Fset.Position(pos)
	lines := p.allow[directiveKey(position.Filename, key)]
	return lines[position.Line] || lines[position.Line-1]
}

func directiveKey(filename, key string) string { return filename + "\x00" + key }

// scanDirectives indexes every `//lint:allow-<key> <justification>`
// comment in the pass's files.
func (p *Pass) scanDirectives() {
	p.allow = make(map[string]map[int]bool)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:allow-")
				if !ok {
					continue
				}
				key, _, _ := strings.Cut(text, " ")
				key = strings.TrimSpace(key)
				if key == "" {
					continue
				}
				position := p.Fset.Position(c.Pos())
				k := directiveKey(position.Filename, key)
				if p.allow[k] == nil {
					p.allow[k] = make(map[int]bool)
				}
				p.allow[k][position.Line] = true
			}
		}
	}
}

// RunAnalyzers applies every analyzer to every package and returns the
// findings sorted by position.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &diags,
			}
			pass.scanDirectives()
			a.Run(pass)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// All returns the full suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		CloneBoundary,
		NoDeterminism,
		BoundedAlloc,
		NoParallelNest,
	}
}

// --- shared type helpers -------------------------------------------------

// namedFromPkg reports whether t (after stripping one pointer) is a
// named type with the given name whose defining package is named
// pkgName. Matching by package NAME rather than full import path keeps
// the analyzers applicable to both the real tree (repro/internal/...)
// and self-contained test fixtures that model the same packages.
func namedFromPkg(t types.Type, pkgName, typeName string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == typeName && obj.Pkg() != nil && obj.Pkg().Name() == pkgName
}

// isMessageType reports whether t is transport.Message (by value or
// pointer).
func isMessageType(t types.Type) bool {
	return t != nil && namedFromPkg(t, "transport", "Message")
}

// calleeObj resolves the called function/method object of a call, or
// nil for calls through non-identifier expressions.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		return info.Uses[fn.Sel]
	}
	return nil
}

// isPkgFunc reports whether the call invokes the named package-level
// function of a package with the given name.
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgName string, fnNames ...string) bool {
	obj := calleeObj(info, call)
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Name() != pkgName {
		return false
	}
	if fn, ok := obj.(*types.Func); !ok || fn.Type().(*types.Signature).Recv() != nil {
		return false
	}
	for _, n := range fnNames {
		if obj.Name() == n {
			return true
		}
	}
	return false
}
