package influmax_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestInternalSurfaceIsCalled pins the export rule for internal/*: a
// function or method is exported only if some other package refers to it
// (a binary, an example, this package, the benchmark module or another
// package's tests). It fails, listing them, on every exported top-level
// function or method declared in a non-test file under internal/ whose
// name is an identifier in no .go file outside its own directory.
//
// Two kinds of method are exempt: methods whose name an interface
// declares (an interface in this repository, or sort's and
// container/heap's), since callers reach them through the interface; and
// methods of the types influmax.go names in an exported declaration,
// which are the public library API.
func TestInternalSurfaceIsCalled(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string]*ast.File{} // slash path -> parsed file
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files[filepath.ToSlash(path)] = f
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// usedIn[name] is the set of directories whose files mention name.
	usedIn := map[string]map[string]bool{}
	ifaceMethods := map[string]bool{"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true}
	for path, f := range files {
		dir := filepath.Dir(filepath.FromSlash(path))
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if usedIn[n.Name] == nil {
					usedIn[n.Name] = map[string]bool{}
				}
				usedIn[n.Name][filepath.ToSlash(dir)] = true
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						ifaceMethods[name.Name] = true
					}
				}
			}
			return true
		})
	}

	public := facadeTypes(t, files["influmax.go"])

	var flagged []string
	for path, f := range files {
		if !strings.HasPrefix(path, "internal/") || strings.HasSuffix(path, "_test.go") {
			continue
		}
		dir := filepath.ToSlash(filepath.Dir(filepath.FromSlash(path)))
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil {
				if ifaceMethods[name] || public[dir+"."+receiverType(fn.Recv.List[0].Type)] {
					continue
				}
			}
			outside := false
			for d := range usedIn[name] {
				if d != dir {
					outside = true
					break
				}
			}
			if !outside {
				label := name
				if fn.Recv != nil {
					label = receiverType(fn.Recv.List[0].Type) + "." + name
				}
				flagged = append(flagged, dir+": "+label)
			}
		}
	}
	sort.Strings(flagged)
	for _, s := range flagged {
		t.Errorf("exported but referred to by no other package: %s", s)
	}
}

// facadeTypes returns "dir.Type" for every internal type that an exported
// declaration of the influmax facade names through a package selector.
func facadeTypes(t *testing.T, f *ast.File) map[string]bool {
	t.Helper()
	if f == nil {
		t.Fatal("influmax.go not found")
	}
	dirOf := map[string]string{} // import name -> directory
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			t.Fatal(err)
		}
		rel, ok := strings.CutPrefix(p, "influmax/")
		if !ok {
			continue
		}
		name := rel[strings.LastIndex(rel, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		dirOf[name] = rel
	}
	out := map[string]bool{}
	collect := func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && dirOf[x.Name] != "" {
					out[dirOf[x.Name]+"."+sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() {
				collect(d.Type)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						collect(s.Type)
					}
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if name.IsExported() {
							collect(s)
							break
						}
					}
				}
			}
		}
	}
	return out
}

// receiverType returns the name of a method receiver's base type.
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
