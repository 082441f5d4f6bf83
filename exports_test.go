package wattdb_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoUnreferencedExports keeps dead code dead: every exported function or
// method declared in a non-test file under internal/ must be named somewhere
// in the module or in bench/ besides its own declaration — a call, a method
// value, an interface's method list, a test. Matching is by bare name, so a
// dead Add hides behind a live one: the test can miss a dead function and
// can never flag a live one.
func TestNoUnreferencedExports(t *testing.T) {
	// Methods the standard library calls through its own interfaces
	// (fmt.Stringer, error, sort.Interface, heap.Interface).
	uses := map[string]int{"String": 1, "Error": 1, "Len": 1, "Less": 1, "Swap": 1, "Push": 1, "Pop": 1}
	declared := map[string]token.Position{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name != "." && strings.HasPrefix(name, ".") {
				return filepath.SkipDir // .git, .bench_build
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		library := strings.HasPrefix(filepath.ToSlash(path), "internal/") && !strings.HasSuffix(path, "_test.go")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				uses[n.Name.Name]-- // the Ident case below counts the declaration too
				if library && n.Name.IsExported() {
					declared[n.Name.Name] = fset.Position(n.Pos())
				}
			case *ast.Ident:
				uses[n.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, pos := range declared {
		if uses[name] == 0 {
			t.Errorf("%s: exported %s is referenced nowhere in the module or bench/ — delete it", pos, name)
		}
	}
}
