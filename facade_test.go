package vodcast_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
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
	// parse parses the files matching pattern that are tests, or that are not.
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
	"obs.AlertEngine.SetClock":   "test seam: vodserver's TestSlipAlertLifecycle evaluates the slip rule on a manual clock; ROADMAP item 4's virtual clock retires it",
	"vodserver.NewVBRVideo":      "paper artefact: serves a Section 4 VBR plan (README.md, the serving section)",
}

// listedPackage is what the caller gate reads of `go list -json`.
type listedPackage struct {
	Dir, ImportPath, Export, ForTest                   string
	GoFiles, TestGoFiles, XTestGoFiles, IgnoredGoFiles []string
}

// goList lists the packages of the module in dir and every package they or
// their tests import, dependencies first, with the paths of their export data.
func goList(t *testing.T, dir string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-e", "-deps", "-test", "-export", "-json", "./...")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// TestInternalNamesHaveCallers holds internal/ to the facade's rule: every
// exported package-level func, var and const, and every exported method of an
// exported type, is used outside its declaring file by the module's non-test
// code, the root tests or benchmark/, tests included. It type-checks every
// package of both modules from source, importing the standard library from
// its export data, and a use is one go/types resolves to the declared object
// itself, so two methods that share a name are told apart. A method is also
// called when its receiver implements a named interface of any loaded
// package that has the method, and a const of a parenthesised block is
// called when any const of its block is. Files this platform does not build
// count by selector name alone. Types and fields are out of scope:
// signatures, composite literals and encoding/json reach them.
func TestInternalNamesHaveCallers(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	parseFiles := func(dir string, names []string) []*ast.File {
		var files []*ast.File
		for _, name := range names {
			rel, err := filepath.Rel(wd, filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			f, err := parser.ParseFile(fset, rel, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		return files
	}

	// The module packages, dependencies first, and every package's export data.
	var pkgs []listedPackage
	exports := map[string]string{}
	listed := map[string]bool{}
	for _, dir := range []string{".", "benchmark"} {
		for _, p := range goList(t, dir) {
			if p.ForTest != "" || strings.HasSuffix(p.ImportPath, ".test") || listed[p.ImportPath] {
				continue
			}
			listed[p.ImportPath] = true
			exports[p.ImportPath] = p.Export
			if p.ImportPath == "vodcast" || strings.HasPrefix(p.ImportPath, "vodcast/") {
				pkgs = append(pkgs, p)
			}
		}
	}

	// Type-check every module package from source, its tests with it where
	// they are callers, into one Uses map.
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(exports[path]) })
	checked := map[string]*types.Package{}
	var typeErrs []string
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if pkg := checked[path]; pkg != nil {
				return pkg, nil
			}
			return gc.Import(path)
		}),
		Error: func(err error) { typeErrs = append(typeErrs, err.Error()) },
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	var internal []*ast.File
	ignoredSels := map[string]bool{}
	for _, p := range pkgs {
		testsCall := p.ImportPath == "vodcast" || p.ImportPath == "vodcast/benchmark"
		goFiles := p.GoFiles
		if testsCall {
			goFiles = append(goFiles, p.TestGoFiles...)
		}
		files := parseFiles(p.Dir, goFiles)
		checked[p.ImportPath], _ = conf.Check(p.ImportPath, fset, files, info)
		if strings.HasPrefix(p.ImportPath, "vodcast/internal/") {
			internal = append(internal, files...)
		}
		if testsCall && len(p.XTestGoFiles) > 0 {
			conf.Check(p.ImportPath+"_test", fset, parseFiles(p.Dir, p.XTestGoFiles), info)
		}
		for _, f := range parseFiles(p.Dir, p.IgnoredGoFiles) {
			if testsCall || !strings.HasSuffix(fset.File(f.Pos()).Name(), "_test.go") {
				ast.Inspect(f, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok {
						ignoredSels[sel.Sel.Name] = true
					}
					return true
				})
			}
		}
	}
	if len(typeErrs) > 0 {
		t.Fatalf("%d type errors; a gate that cannot type-check checks nothing:\n  %s", len(typeErrs), strings.Join(typeErrs, "\n  "))
	}

	// The names to check, keyed "dir.Name" or "dir.Type.Method" with dir the
	// package's path below internal/, each with its receiver's type.
	names := map[string]types.Object{}
	recvs := map[types.Object]*types.Named{}
	for path, pkg := range checked {
		if !strings.HasPrefix(path, "vodcast/internal/") {
			continue
		}
		prefix := strings.TrimPrefix(path, "vodcast/internal/") + "."
		for _, name := range pkg.Scope().Names() {
			switch obj := pkg.Scope().Lookup(name).(type) {
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() || !obj.Exported() {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() {
						names[prefix+name+"."+m.Name()] = m
						recvs[m] = named
					}
				}
			case *types.Func, *types.Var, *types.Const:
				if obj.Exported() {
					names[prefix+name] = obj
				}
			}
		}
	}
	if len(names) < 300 {
		t.Fatalf("found %d exported internal names, fewer than 300: the tree moved and this test checks nothing", len(names))
	}

	// Uses outside the declaring file, generic methods by their origin.
	used := map[types.Object]bool{}
	for id, obj := range info.Uses {
		if f, ok := obj.(*types.Func); ok {
			obj = f.Origin()
		}
		if fset.File(id.Pos()) != fset.File(obj.Pos()) {
			used[obj] = true
		}
	}

	// Every named interface of every loaded package, by method name.
	ifaces := map[string][]*types.Interface{}
	seen := map[*types.Package]bool{}
	var addIfaces func(*types.Package)
	addIfaces = func(pkg *types.Package) {
		if pkg == nil || seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
				for i := 0; i < iface.NumMethods(); i++ {
					ifaces[iface.Method(i).Name()] = append(ifaces[iface.Method(i).Name()], iface)
				}
			}
		}
		for _, imp := range pkg.Imports() {
			addIfaces(imp)
		}
	}
	for _, pkg := range checked {
		addIfaces(pkg)
	}
	ifaces["Error"] = append(ifaces["Error"], types.Universe.Lookup("error").Type().Underlying().(*types.Interface))

	// A const of a parenthesised block is called when any const of it is.
	blocks := map[token.Pos]*ast.GenDecl{}
	for _, f := range internal {
		for _, decl := range f.Decls {
			if d, ok := decl.(*ast.GenDecl); ok && d.Tok == token.CONST && d.Lparen.IsValid() {
				for _, spec := range d.Specs {
					for _, id := range spec.(*ast.ValueSpec).Names {
						blocks[id.Pos()] = d
					}
				}
			}
		}
	}
	called := func(obj types.Object) bool {
		if used[obj] || ignoredSels[obj.Name()] {
			return true
		}
		recv := recvs[obj]
		if recv == nil || recv.TypeParams().Len() > 0 {
			return false
		}
		for _, iface := range ifaces[obj.Name()] {
			if types.Implements(types.NewPointer(recv), iface) {
				return true
			}
		}
		return false
	}
	calledBlocks := map[*ast.GenDecl]bool{}
	for _, obj := range names {
		if d := blocks[obj.Pos()]; d != nil && called(obj) {
			calledBlocks[d] = true
		}
	}

	var orphans []string
	for key, obj := range names {
		live := called(obj) || calledBlocks[blocks[obj.Pos()]]
		if _, ok := internalAllowlist[key]; ok {
			if live {
				t.Errorf("allowlist entry %s is stale: it has a caller now", key)
			}
			continue
		}
		if !live {
			orphans = append(orphans, fmt.Sprintf("%s (%s)", key, fset.Position(obj.Pos())))
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
