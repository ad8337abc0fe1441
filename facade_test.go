package vodcast_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestFacadeNamesHaveCallers holds the facade to one rule: every exported
// name of the root package is referenced as vodcast.Name by an example or a
// root-package test, or is named in the signature of a facade function that
// is. A re-export nothing calls is surface to keep compiling for nobody.
func TestFacadeNamesHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(pattern string, tests bool) []*ast.File {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		var files []*ast.File
		for _, p := range paths {
			if strings.HasSuffix(p, "_test.go") != tests {
				continue
			}
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		return files
	}

	// Exported declarations of the facade, and for each function the facade
	// names its signature mentions.
	declared := map[string]bool{}
	signature := map[string][]string{}
	for _, f := range parse("vodcast_*.go", false) {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil || !d.Name.IsExported() {
					continue
				}
				declared[d.Name.Name] = true
				ast.Inspect(d.Type, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && id.IsExported() {
						signature[d.Name.Name] = append(signature[d.Name.Name], id.Name)
					}
					return true
				})
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							declared[s.Name.Name] = true
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.IsExported() {
								declared[id.Name] = true
							}
						}
					}
				}
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("vodcast_*.go declares nothing exported: the facade moved and this test checks nothing")
	}

	// Direct callers: vodcast.Name selectors in the examples and the root tests.
	called := map[string]bool{}
	for _, f := range append(parse("examples/*/main.go", false), parse("*_test.go", true)...) {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "vodcast" && declared[sel.Sel.Name] {
				called[sel.Sel.Name] = true
			}
			return true
		})
	}

	// A called function's signature keeps the aliases it names.
	kept := map[string]bool{}
	for name := range called {
		kept[name] = true
		for _, id := range signature[name] {
			if declared[id] {
				kept[id] = true
			}
		}
	}

	var orphans []string
	for name := range declared {
		if !kept[name] {
			orphans = append(orphans, name)
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Errorf("%d of %d exported facade names have no caller in examples/ or the root tests:\n  %s",
			len(orphans), len(declared), strings.Join(orphans, "\n  "))
	}
}
