package influmax_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// goDirs returns every directory under root holding non-test Go files,
// skipping testdata trees as the go tool does.
func goDirs(t *testing.T, root string) []string {
	t.Helper()
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			seen[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	dirs := make([]string, 0, len(seen))
	for d := range seen {
		dirs = append(dirs, filepath.ToSlash(d))
	}
	sort.Strings(dirs)
	return dirs
}

// importsOf returns the import paths of dir's non-test Go files.
func importsOf(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, path)
		}
	}
	return out
}

// TestEveryInternalPackageIsReachable fails on an internal/ package that
// nothing ships: one no binary, example or facade function imports,
// directly or through other packages, so only its own tests exercise it.
// It follows imports from cmd/, examples/ and the root package with
// go/parser rather than the go tool, so it needs nothing outside the tree.
func TestEveryInternalPackageIsReachable(t *testing.T) {
	const prefix = "influmax/"
	roots := append([]string{"."}, goDirs(t, "cmd")...)
	roots = append(roots, goDirs(t, "examples")...)
	reached := map[string]bool{}
	queue := roots
	for len(queue) > 0 {
		dir := queue[0]
		queue = queue[1:]
		for _, path := range importsOf(t, dir) {
			if dep := strings.TrimPrefix(path, prefix); dep != path && strings.HasPrefix(dep, "internal/") && !reached[dep] {
				reached[dep] = true
				queue = append(queue, dep)
			}
		}
	}
	internal := goDirs(t, "internal")
	if len(internal) == 0 {
		t.Fatal("found no internal packages: the walk is not looking at the tree")
	}
	for _, dir := range internal {
		if !reached[dir] {
			t.Errorf("%s is imported by no binary, example or facade function: delete it or ship it", dir)
		}
	}
}

// TestCmdDoesNotImportFacade keeps the root package a library surface:
// the binaries under cmd/ import the engine packages directly, so the
// facade holds only what a library caller needs, not what a CLI happens
// to use.
func TestCmdDoesNotImportFacade(t *testing.T) {
	dirs := goDirs(t, "cmd")
	if len(dirs) == 0 {
		t.Fatal("found no cmd packages: the walk is not looking at the tree")
	}
	for _, dir := range dirs {
		for _, path := range importsOf(t, dir) {
			if path == "influmax" {
				t.Errorf("%s imports the influmax facade: import the internal package behind it", dir)
			}
		}
	}
}

// TestClusterDoesNotRunDist keeps the shard fleet off the distributed
// pipeline: a shard is an id range of one in-process sample draw, so
// internal/cluster imports neither internal/dist nor the in-process
// communicator that would run it (mpi.NewLocalCluster).
func TestClusterDoesNotRunDist(t *testing.T) {
	const dir = "internal/cluster"
	for _, path := range importsOf(t, dir) {
		if path == "influmax/internal/dist" {
			t.Errorf("%s imports %s", dir, path)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "NewLocalCluster" {
				t.Errorf("%s calls %s.NewLocalCluster", fset.Position(sel.Pos()), sel.X)
			}
			return true
		})
	}
}
