package rrq

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateAPI = flag.Bool("update-api", false,
	"rewrite testdata/api.txt from the package's exported names")

// publicSurface lists every exported top-level name and every exported
// method of an exported type declared in the package's non-test files, one
// "kind Name" line each, sorted.
func publicSurface(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					names = append(names, "func "+d.Name.Name)
					continue
				}
				if recv := receiverType(d.Recv.List[0].Type); ast.IsExported(recv) {
					names = append(names, "method "+recv+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							names = append(names, "type "+s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								names = append(names, d.Tok.String()+" "+n.Name)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(names)
	return names
}

// receiverType names a method's receiver type without its pointer.
func receiverType(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// The exported surface is pinned in testdata/api.txt, so every name added
// to or removed from the package shows up in review as a change to that
// file. Regenerate it with
//
//	go test -run TestPublicSurface -update-api .
func TestPublicSurface(t *testing.T) {
	got := publicSurface(t)
	const golden = "testdata/api.txt"
	if *updateAPI {
		if err := os.WriteFile(golden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	have := make(map[string]bool, len(got))
	for _, n := range got {
		have[n] = true
	}
	pinned := make(map[string]bool, len(want))
	for _, n := range want {
		pinned[n] = true
		if !have[n] {
			t.Errorf("%s is in %s but no longer exported", n, golden)
		}
	}
	for _, n := range got {
		if !pinned[n] {
			t.Errorf("%s is exported but not in %s", n, golden)
		}
	}
}
