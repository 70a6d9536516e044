package depint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// uncalledAllowed lists the exported package-level functions under
// internal/ that only tests call, each kept on purpose.
var uncalledAllowed = map[string]string{
	"graph.ClusterID":       "builds cluster ids in graph and mapping tests; the inverse of graph.Members",
	"sched.Simulate":        "EDF simulation oracle for sched.Check in the sched, core and fuzz tests",
	"obs.WithClock":         "tests fix the tracer clock to get deterministic span times",
	"obs.WithSpanCap":       "tests set a small span cap to exercise the overflow path",
	"obs.WithRemoteSpanCap": "tests set a small remote-span cap to exercise the relay overflow path",
}

// TestInternalFuncsHaveCallers fails on an exported package-level function
// under internal/ that no non-test file of the module calls: code that only
// its own unit test runs. It parses every non-test .go file, bench/
// included, collects every identifier that is not the name in a function
// declaration, and reports each exported top-level function under
// internal/ whose name is not among them. The scan matches names, not
// objects, so a function that shares its name with some other identifier
// counts as called: it can miss dead code but never reports live code.
// internal/testutil exists for tests and is skipped.
func TestInternalFuncsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	type exportedFunc struct{ pkg, name, pos string }
	var funcs []exportedFunc
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch {
			case path == ".":
			case strings.HasPrefix(d.Name(), "."), d.Name() == "testdata",
				path == filepath.Join("bench", "out"),
				path == filepath.Join("internal", "testutil"):
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
		declNames := map[*ast.Ident]bool{}
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declNames[fd.Name] = true
			if internal && fd.Recv == nil && fd.Name.IsExported() {
				funcs = append(funcs, exportedFunc{f.Name.Name, fd.Name.Name, fset.Position(fd.Pos()).String()})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declNames[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(funcs) == 0 {
		t.Fatal("no exported function found under internal/; is the test running from the module root?")
	}
	uncalled := map[string]bool{}
	for _, fn := range funcs {
		if used[fn.name] {
			continue
		}
		key := fn.pkg + "." + fn.name
		uncalled[key] = true
		if _, ok := uncalledAllowed[key]; !ok {
			t.Errorf("%s (%s) has no caller outside tests: delete it, move it into a _test.go file, or call it", key, fn.pos)
		}
	}
	for key := range uncalledAllowed {
		if !uncalled[key] {
			t.Errorf("uncalledAllowed lists %s, which is now called or gone: drop the entry", key)
		}
	}
}
