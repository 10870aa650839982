package main

import (
	"bytes"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestListNamesEveryAnalyzer(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, name := range []string{"cloneboundary", "nodeterminism", "boundedalloc", "noparallelnest"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %s:\n%s", name, out.String())
		}
	}
}

func TestRunFilter(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-run", "clone", "-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if got := strings.TrimSpace(out.String()); !strings.HasPrefix(got, "cloneboundary") || strings.Contains(got, "\n") {
		t.Errorf("-run clone -list should print exactly cloneboundary, got:\n%s", out.String())
	}
}

func TestBadRunRegexp(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-run", "("}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestNoMatchingAnalyzers(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-run", "nosuchanalyzer"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// TestRepoTreeIsClean runs the full suite over this repository: the
// lint gate must hold for the tree the gate ships in.
func TestRepoTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-dir", "../..", "./..."}, &out, &errb); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
}

// TestUnsafeIsConfinedToTensorBytes pins the one exception LINT.md grants:
// the module imports "unsafe" in exactly one file, the audited vector ↔
// byte view of internal/tensor. (benchmark/ is its own module and pins
// threads with a raw syscall; it is not part of the program.)
func TestUnsafeIsConfinedToTensorBytes(t *testing.T) {
	const root = "../.."
	var users []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", "benchmark", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"unsafe"` {
				rel, _ := filepath.Rel(root, path)
				users = append(users, filepath.ToSlash(rel))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(users) != 1 || users[0] != "internal/tensor/bytes.go" {
		t.Fatalf("files importing unsafe: %v, want exactly [internal/tensor/bytes.go] (see LINT.md)", users)
	}
}

// TestAssemblyIsConfined pins the other exception LINT.md grants: the
// module's assembly is the CPU check and the AVX2 bodies of five kernels,
// each with its Go reference, and nothing else.
func TestAssemblyIsConfined(t *testing.T) {
	const root = "../.."
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", "benchmark":
				return filepath.SkipDir
			}
			return nil
		}
		if ext := filepath.Ext(path); ext == ".s" || ext == ".S" {
			rel, _ := filepath.Rel(root, path)
			files = append(files, filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"internal/cpu/cpu_amd64.s", "internal/gar/kernels_amd64.s", "internal/nn/conv_amd64.s", "internal/tensor/vector_amd64.s"}
	if !slices.Equal(files, want) {
		t.Fatalf("assembly files: %v, want exactly %v (see LINT.md, \"The assembly sites\")", files, want)
	}
}
