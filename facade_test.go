package vodcast_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// parse parses the files matching pattern that are tests, or that are not.
func parse(t *testing.T, fset *token.FileSet, pattern string, tests bool) []*ast.File {
	t.Helper()
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

// TestFacadeNamesHaveCallers holds the facade to one rule: every exported
// name of the root package is referenced as vodcast.Name by an example or a
// root-package test, or is named in the signature of a facade function that
// is. A re-export nothing calls is surface to keep compiling for nobody.
func TestFacadeNamesHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(pattern string, tests bool) []*ast.File { return parse(t, fset, pattern, tests) }

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

// TestBenchmarkModuleBuilds vets benchmark/, a module of its own that go
// test ./... does not build, so an API change that breaks the benchmark's
// code or its tests fails here rather than on the benchmark's first run. Its
// one dependency is this module (replace vodcast => ../), so it vets offline.
func TestBenchmarkModuleBuilds(t *testing.T) {
	vet := exec.Command("go", "vet", "./...")
	vet.Dir = "benchmark"
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in benchmark/: %v\n%s", err, out)
	}
}

// internalAllowlist names the exported internal names the caller gate keeps
// without a caller, each with its reason: a test seam and the ROADMAP item
// that retires it, or a paper artefact and the doc that cites it.
var internalAllowlist = map[string]string{
	"fanout.Encoder.Outstanding": "test seam for frame leaks; ROADMAP item 2 retires it as item 8's frames_outstanding series",
	"fanout.Ring.Depth":          "test seam for ring occupancy in vodserver's tests; ROADMAP item 8's session record carries the ring depth",
	"vodserver.NewVBRVideo":      "paper artefact: serves a Section 4 VBR plan (README.md, the serving section)",
}

// TestInternalNamesHaveCallers holds internal/ to the facade's rule: every
// exported package-level func, var and const, and every exported method of an
// exported type, is named outside its declaring file by the module's non-test
// code, the root tests or benchmark/. Package-level names match as alias.Name,
// or as a bare Name inside their own package; a const of a parenthesised block
// is called when any const of its block is. Methods match any .Name selector,
// so a dead method that shares a live one's name goes unseen, but a live one
// is never flagged. Types and fields are out of scope: signatures, composite
// literals and encoding/json reach them.
func TestInternalNamesHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	var internal, callers []*ast.File
	for _, pattern := range []string{"internal/*/*.go", "internal/*/*/*.go"} {
		internal = append(internal, parse(t, fset, pattern, false)...)
	}
	callers = append(callers, internal...)
	for _, pattern := range []string{"*.go", "cmd/*/*.go", "examples/*/*.go"} {
		callers = append(callers, parse(t, fset, pattern, false)...)
	}
	callers = append(callers, parse(t, fset, "*_test.go", true)...)
	callers = append(callers, parse(t, fset, "benchmark/*.go", false)...)
	callers = append(callers, parse(t, fset, "benchmark/*.go", true)...)
	fileOf := func(n ast.Node) string { return filepath.ToSlash(fset.Position(n.Pos()).Filename) }

	// The names to check, keyed "dir.Name" or "dir.Type.Method" with dir the
	// package's path below internal/, and every package-level declaration.
	type declared struct {
		file, ident string
		pos         token.Pos
		method      bool
		block       *ast.GenDecl // a parenthesised const block
	}
	names := map[string]declared{}
	for _, f := range internal {
		file := fileOf(f)
		key := strings.TrimPrefix(path.Dir(file), "internal/") + "."
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					if d.Name.IsExported() {
						names[key+d.Name.Name] = declared{file: file, ident: d.Name.Name, pos: d.Pos()}
					}
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				switch r := recv.(type) {
				case *ast.IndexExpr:
					recv = r.X
				case *ast.IndexListExpr:
					recv = r.X
				}
				if typ := recv.(*ast.Ident); typ.IsExported() && d.Name.IsExported() {
					names[key+typ.Name+"."+d.Name.Name] = declared{file: file, ident: d.Name.Name, pos: d.Pos(), method: true}
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					s, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, id := range s.Names {
						if !id.IsExported() {
							continue
						}
						n := declared{file: file, ident: id.Name, pos: id.Pos()}
						if d.Tok == token.CONST && d.Lparen.IsValid() {
							n.block = d
						}
						names[key+id.Name] = n
					}
				}
			}
		}
	}
	if len(names) < 300 {
		t.Fatalf("found %d exported internal names, fewer than 300: the tree moved and this test checks nothing", len(names))
	}

	// The files that name each "dir.Name" and each .Name selector.
	pkgRefs := map[string]map[string]bool{}
	selRefs := map[string]map[string]bool{}
	ref := func(refs map[string]map[string]bool, name, file string) {
		if refs[name] == nil {
			refs[name] = map[string]bool{}
		}
		refs[name][file] = true
	}
	for _, f := range callers {
		file := fileOf(f)
		dir := path.Dir(file)
		imports := map[string]string{} // alias -> import path
		for _, imp := range f.Imports {
			importPath := strings.Trim(imp.Path.Value, `"`)
			alias := path.Base(importPath)
			if imp.Name != nil {
				alias = imp.Name.Name
			}
			imports[alias] = importPath
		}
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ImportSpec:
				return false
			case *ast.FuncDecl:
				if n.Recv != nil {
					ast.Inspect(n.Recv, visit)
				}
				ast.Inspect(n.Type, visit)
				if n.Body != nil {
					ast.Inspect(n.Body, visit)
				}
				return false
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					pkg := strings.TrimPrefix(imports[x.Name], "vodcast/")
					ref(pkgRefs, pkg+"."+n.Sel.Name, file)
					return false
				}
				ref(selRefs, n.Sel.Name, file)
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				ref(pkgRefs, dir+"."+n.Name, file)
			}
			return true
		}
		ast.Inspect(f, visit)
	}

	called := func(n declared) bool {
		refs := pkgRefs[path.Dir(n.file)+"."+n.ident]
		if n.method {
			refs = selRefs[n.ident]
		}
		for file := range refs {
			if file != n.file {
				return true
			}
		}
		return false
	}
	calledBlocks := map[*ast.GenDecl]bool{}
	for _, n := range names {
		if n.block != nil && called(n) {
			calledBlocks[n.block] = true
		}
	}
	var orphans []string
	for key, n := range names {
		live := called(n) || calledBlocks[n.block]
		if _, ok := internalAllowlist[key]; ok {
			if live {
				t.Errorf("allowlist entry %s is stale: it has a caller now", key)
			}
			continue
		}
		if !live {
			orphans = append(orphans, fmt.Sprintf("%s (%s)", key, fset.Position(n.pos)))
		}
	}
	for key := range internalAllowlist {
		if _, ok := names[key]; !ok {
			t.Errorf("allowlist entry %s is stale: no such exported name", key)
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Errorf("%d of %d exported internal names have no caller outside their declaring file (delete or unexport them):\n  %s",
			len(orphans), len(names), strings.Join(orphans, "\n  "))
	}
}
