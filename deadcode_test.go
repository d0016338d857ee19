package mhmgo_test

// The "production code is what production runs" gate, run by tier-1 and the
// CI docs job: every top-level function, method and type declared outside
// _test.go files must be referenced by some live non-test file. Without it
// a function that loses its last production caller stays, kept alive by its
// own tests, until somebody sweeps.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed lists the declarations that stay although no non-test
// file references them, each with the reason. Keys are "package.Name" for
// functions and types and "package.Type.Method" for methods.
var testOnlyAllowed = map[string]string{
	"pgas.WireSizeOf":  "test oracle: the reflective size every hand-written WireSize method is checked against, in twelve packages' tests",
	"seq.MustKmer":     "cross-package test helper: a k-mer from a literal, in five packages' tests",
	"dht.Map.Snapshot": "cross-package test helper: the one charge-free inspector of a table's contents",
	"core.ConfigHash":  "cross-package test oracle: the configuration identity TestConfigHashPin pins and serve's FuzzJobSpecDecode holds equal across a spec round trip",
}

// decl is one top-level function, method or type of a non-test file.
type decl struct {
	key  string // allow-list key
	pos  string
	refs map[types.Object]bool // the objects its signature and body use
}

// moduleLoader type-checks the module's packages from their non-test files,
// all into one types.Info, and hands every other import path to the standard
// library's "source" importer.
type moduleLoader struct {
	fset   *token.FileSet
	module string
	std    types.Importer
	info   *types.Info
	pkgs   map[string]*types.Package
	files  map[string][]*ast.File
}

func (l *moduleLoader) Import(path string) (*types.Package, error) {
	if path != l.module && !strings.HasPrefix(path, l.module+"/") {
		return l.std.Import(path)
	}
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	dir := "." + strings.TrimPrefix(path, l.module)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if name := e.Name(); !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, err := (&types.Config{Importer: l}).Check(path, l.fset, files, l.info)
	l.pkgs[path], l.files[path] = pkg, files
	return pkg, err
}

// origin maps an instantiated generic function, method or field back to the
// object its declaration defines.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// usesOf adds every object the nodes use to refs. A selector's method
// resolves to the method of its receiver's type, so two methods that share
// a name are two objects.
func usesOf(info *types.Info, refs map[types.Object]bool, nodes ...ast.Node) {
	for _, n := range nodes {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil {
					refs[origin(obj)] = true
				}
			}
			return true
		})
	}
}

// methodSetInterface returns t's underlying interface if it is one that
// methods can satisfy: non-empty and not a type-set constraint.
func methodSetInterface(t types.Type) *types.Interface {
	iface, ok := t.Underlying().(*types.Interface)
	if !ok || iface.NumMethods() == 0 || !iface.IsMethodSet() {
		return nil
	}
	return iface
}

// TestNoTestOnlyDeclarations type-checks the tree (go/types; the standard
// library through go/importer's "source" mode) and fails on any function,
// method or type outside _test.go files that no live non-test file
// references. References are objects, not names, iterated to a fixpoint:
// main, init, package-level variables, the root package's exported names
// (the module's one importable API) and every file of the frozen benchmark/
// are the roots; a declaration is live once a live declaration other than
// itself uses it. A method reached only through an interface is live once
// its receiver type is: a live type keeps the methods with which it
// satisfies any interface the module mentions or a directly imported
// standard package exports.
func TestNoTestOnlyDeclarations(t *testing.T) {
	mod, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	module := strings.Fields(string(mod))[1]

	// The source importer would run cgo for net; the pure-Go files declare
	// the same API.
	defer func(cgo bool) { build.Default.CgoEnabled = cgo }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	l := &moduleLoader{
		fset:   fset,
		module: module,
		std:    importer.ForCompiler(fset, "source", nil),
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
	}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		_, err = l.Import(filepath.ToSlash(filepath.Join(module, filepath.Dir(path))))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	info := l.info

	decls := map[types.Object]*decl{}
	live := map[types.Object]bool{} // seeded with what the roots use
	for path, files := range l.files {
		pkg := l.pkgs[path]
		for _, f := range files {
			if path == module+"/benchmark" {
				usesOf(info, live, f)
				continue
			}
			add := func(key string, name *ast.Ident, nodes ...ast.Node) {
				dc := &decl{key: pkg.Name() + "." + key, pos: fset.Position(name.Pos()).String(), refs: map[types.Object]bool{}}
				usesOf(info, dc.refs, nodes...)
				obj := info.Defs[name]
				decls[obj] = dc
				if path == module && name.IsExported() {
					live[obj] = true
				}
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					nodes := []ast.Node{d.Type}
					if d.Body != nil {
						nodes = append(nodes, d.Body)
					}
					switch {
					case d.Recv != nil:
						recv := info.Defs[d.Name].(*types.Func).Type().(*types.Signature).Recv().Type()
						if p, ok := recv.(*types.Pointer); ok {
							recv = p.Elem()
						}
						add(recv.(*types.Named).Obj().Name()+"."+d.Name.Name, d.Name, append(nodes, d.Recv)...)
					case d.Name.Name == "main" || d.Name.Name == "init":
						usesOf(info, live, nodes...)
					default:
						add(d.Name.Name, d.Name, nodes...)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok {
							add(ts.Name.Name, ts.Name, ts)
						} else {
							usesOf(info, live, s)
						}
					}
				}
			}
		}
	}

	// The interfaces a method can be reached through.
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[types.Type]bool{}
	for _, tv := range info.Types {
		if tv.IsType() && !seen[tv.Type] {
			seen[tv.Type] = true
			if iface := methodSetInterface(tv.Type); iface != nil {
				ifaces = append(ifaces, iface)
			}
		}
	}
	stdSeen := map[*types.Package]bool{}
	for _, pkg := range l.pkgs {
		for _, imp := range pkg.Imports() {
			if l.pkgs[imp.Path()] != nil || stdSeen[imp] {
				continue
			}
			stdSeen[imp] = true
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					if iface := methodSetInterface(tn.Type()); iface != nil {
						ifaces = append(ifaces, iface)
					}
				}
			}
		}
	}
	for obj, dc := range decls {
		tn, ok := obj.(*types.TypeName)
		if !ok || types.IsInterface(tn.Type()) {
			continue
		}
		typ := tn.Type()
		if named, ok := typ.(*types.Named); ok && named.TypeParams().Len() > 0 {
			// Implements is specified for instantiated types only:
			// instantiate the generic type with its own parameters.
			args := make([]types.Type, named.TypeParams().Len())
			for i := range args {
				args[i] = named.TypeParams().At(i)
			}
			if typ, err = types.Instantiate(nil, named, args, false); err != nil {
				t.Fatal(err)
			}
		}
		ptr := types.NewPointer(typ)
		for _, iface := range ifaces {
			if !types.Implements(ptr, iface) {
				continue
			}
			for i := range iface.NumMethods() {
				m := iface.Method(i)
				if fn, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); fn != nil {
					dc.refs[origin(fn)] = true
				}
			}
		}
	}

	// A recursive function's use of itself does not count: d's own refs join
	// the live set only once d is live.
	spread := map[types.Object]bool{}
	propagate := func() {
		for changed := true; changed; {
			changed = false
			for obj, d := range decls {
				if !live[obj] || spread[obj] {
					continue
				}
				spread[obj], changed = true, true
				for r := range d.refs {
					live[r] = true
				}
			}
		}
	}
	propagate()
	// What the allow-list keeps, keeps what it calls.
	for obj, d := range decls {
		if testOnlyAllowed[d.key] == "" {
			continue
		}
		if live[obj] {
			t.Errorf("testOnlyAllowed[%q] is referenced by live code; drop the entry", d.key)
		}
		for r := range d.refs {
			live[r] = true
		}
	}
	propagate()

	var dead []string
	declared := map[string]bool{}
	for obj, d := range decls {
		declared[d.key] = true
		if !live[obj] && testOnlyAllowed[d.key] == "" {
			dead = append(dead, fmt.Sprintf("%s: %s", d.pos, d.key))
		}
	}
	sort.Strings(dead)
	for _, line := range dead {
		t.Errorf("%s is referenced by no live non-test file: delete it, move it into a _test.go file, or give it a production caller", line)
	}
	for key, reason := range testOnlyAllowed {
		switch {
		case reason == "":
			t.Errorf("testOnlyAllowed[%q] needs a reason", key)
		case !declared[key]:
			t.Errorf("testOnlyAllowed[%q] names no declaration; drop the entry", key)
		}
	}
	if len(testOnlyAllowed) > 15 {
		t.Errorf("testOnlyAllowed has %d entries; the budget is 15", len(testOnlyAllowed))
	}
}
