package mhmgo_test

// The "production code is what production runs" gate, run by tier-1 and the
// CI docs job: every top-level function, method and type declared outside
// _test.go files must be referenced by some live non-test file. Without it
// a function that loses its last production caller stays, kept alive by its
// own tests, until somebody sweeps.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed lists the declarations that stay although no non-test
// file references them, each with the reason. Keys are "package.Name" for
// functions and types and "package.Type.Method" for methods.
var testOnlyAllowed = map[string]string{
	"pgas.WireSizeOf":        "test oracle: the reflective size every hand-written WireSize method is checked against, in twelve packages' tests",
	"seq.MustKmer":           "cross-package test helper: a k-mer from a literal, in five packages' tests",
	"dht.Map.Snapshot":       "cross-package test helper: the one charge-free inspector of a table's contents",
	"pgas.GatherV":           "no production caller since PR 21; pinned by TestCollectivesGolden until ROADMAP 4(c) decides",
	"pgas.GatherVFunc":       "no production caller since PR 21; pinned by TestCollectivesGolden until ROADMAP 4(c) decides",
	"serve.Server.ServeHTTP": "interface method: http.Handler, called by net/http",
}

// decl is one top-level function, method or type of a non-test file.
type decl struct {
	key  string // allow-list key
	name string // the identifier references are matched against
	pos  string
	refs map[string]bool // identifiers its signature and body mention
	live bool
}

// refsOf collects every identifier n mentions, except the names that
// struct fields and parameters declare (those are not references).
// Interface method names do count: a method reached only through an
// interface is referenced by that interface.
func refsOf(refs map[string]bool, n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			refs[x.Name] = true
		case *ast.InterfaceType:
			for _, m := range x.Methods.List {
				for _, id := range m.Names {
					refs[id.Name] = true
				}
				refsOf(refs, m.Type)
			}
			return false
		case *ast.Field:
			refsOf(refs, x.Type)
			return false
		}
		return true
	})
}

// recvTypeName is the base type name of a method receiver: T for T, *T,
// T[K, V] and *T[K, V].
func recvTypeName(e ast.Expr) string {
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

// TestNoTestOnlyDeclarations parses the tree and fails on any function,
// method or type outside _test.go files that no live non-test file
// references. The scan is by name and iterated to a fixpoint: main, init,
// package-level variables and every file of the frozen benchmark/ are the
// roots; a declaration is live once a live declaration other than itself
// mentions its name. Matching by name alone under-counts (two methods that
// share a name keep each other alive) and never over-counts.
func TestNoTestOnlyDeclarations(t *testing.T) {
	fset := token.NewFileSet()
	var decls []*decl
	rootRefs := map[string]bool{"main": true, "init": true}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
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
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if strings.HasPrefix(filepath.ToSlash(path), "benchmark/") {
			refsOf(rootRefs, f)
			return nil
		}
		pkg := f.Name.Name
		add := func(key, name string, pos token.Pos, nodes ...ast.Node) {
			dc := &decl{key: pkg + "." + key, name: name, pos: fset.Position(pos).String(), refs: map[string]bool{}}
			for _, n := range nodes {
				refsOf(dc.refs, n)
			}
			decls = append(decls, dc)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				key := d.Name.Name
				nodes := []ast.Node{d.Type}
				if d.Body != nil {
					nodes = append(nodes, d.Body)
				}
				if d.Recv != nil {
					key = recvTypeName(d.Recv.List[0].Type) + "." + key
					nodes = append(nodes, d.Recv)
				}
				add(key, d.Name.Name, d.Name.Pos(), nodes...)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok {
						add(ts.Name.Name, ts.Name.Name, ts.Name.Pos(), ts.Type)
					} else {
						refsOf(rootRefs, s)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	liveNames := rootRefs
	propagate := func() {
		for changed := true; changed; {
			changed = false
			for _, d := range decls {
				// A recursive function's mention of itself does not count:
				// d's own refs join liveNames only once d is live.
				if d.live || !liveNames[d.name] {
					continue
				}
				d.live, changed = true, true
				for r := range d.refs {
					liveNames[r] = true
				}
			}
		}
	}
	propagate()
	// What the allow-list keeps, keeps what it calls.
	for _, d := range decls {
		if testOnlyAllowed[d.key] == "" {
			continue
		}
		if d.live {
			t.Errorf("testOnlyAllowed[%q] is referenced by live code; drop the entry", d.key)
		}
		for r := range d.refs {
			liveNames[r] = true
		}
	}
	propagate()

	var dead []string
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		if !d.live && testOnlyAllowed[d.key] == "" {
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
		case !seen[key]:
			t.Errorf("testOnlyAllowed[%q] names no declaration; drop the entry", key)
		}
	}
	if len(testOnlyAllowed) > 15 {
		t.Errorf("testOnlyAllowed has %d entries; the budget is 15", len(testOnlyAllowed))
	}
}
