package depint

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// deadAllowed lists the exported identifiers under internal/ that the
// dead-code tests below would flag, each kept on purpose. Keys are
// pkg.Name for package-level declarations and pkg.Type.Name for methods
// and struct fields.
var deadAllowed = map[string]string{
	"graph.ClusterID":                 "builds cluster ids in graph and mapping tests; the inverse of graph.Members",
	"sched.Simulate":                  "EDF simulation oracle for sched.Check in the sched, core and fuzz tests",
	"sched.Schedule.AllMet":           "part of the sched.Simulate oracle",
	"obs.WithClock":                   "tests fix the tracer clock to get deterministic span times",
	"faultsim.Campaign.StopHalfWidth": "early stopping; bench/verify.go reads Result.EarlyStopped and the campaign goldens record early_stopped",
}

// stdInterfaceMethods are method names that satisfy standard-library
// interfaces (fmt.Stringer, error, errors.Unwrap, json.Marshaler): the
// library calls them, so they need no caller in this module.
var stdInterfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "MarshalJSON": true,
}

// declared is one exported declaration under internal/: a package-level
// function, var, const or type, a method, or a struct field.
type declared struct {
	key  string // pkg.Name or pkg.Type.Name, as deadAllowed spells it
	use  string // dir.Name for package-level declarations, the bare name otherwise
	typ  string // dir.Type of a method's receiver or a field's struct
	pos  string
	kind string
}

// moduleScan is what every non-test .go file of the module, bench/
// included, says about the exported identifiers under internal/.
type moduleScan struct {
	decls, methods, fields []declared
	// uses holds dir.Name for each use of a package-level identifier: a
	// pkg.Name selector through an import of that package, or a bare
	// identifier in one of the package's own files. Declarations, field
	// names and composite-literal keys are not uses.
	uses map[string]bool
	// selected holds every selector name x.Name whose x is not an import.
	selected map[string]bool
	// written holds every field name that is written: a composite-literal
	// key, the target of an assignment or ++/--, or the operand of &.
	written map[string]bool
	// unkeyed holds dir.Type for each struct type built by an unkeyed
	// composite literal, which writes all of its fields.
	unkeyed map[string]bool
	// published maps each string literal passed as the first argument of
	// a Publish call (obs.Bus.Publish, obs.Span.Publish) to the position
	// of one such call.
	published map[string]string
}

// modulePrefix begins the import path of every package of the module.
const modulePrefix = "repro/"

var (
	scanOnce    sync.Once
	scanResult  *moduleScan
	scanErr     error
	reachOnce   sync.Once
	reachResult map[string]bool
	reachErr    error
)

// scanModule parses every non-test .go file under the module root,
// skipping dot-directories, testdata, bench/out and internal/testutil
// (which exists for tests). Package directories stand for packages:
// "internal/graph" for repro/internal/graph.
func scanModule(t *testing.T) *moduleScan {
	t.Helper()
	scanOnce.Do(func() { scanResult, scanErr = doScan() })
	if scanErr != nil {
		t.Fatal(scanErr)
	}
	if len(scanResult.decls) == 0 {
		t.Fatal("no exported declaration found under internal/; is the test running from the module root?")
	}
	return scanResult
}

func doScan() (*moduleScan, error) {
	fset := token.NewFileSet()
	type parsed struct {
		dir string
		f   *ast.File
	}
	var files []parsed
	pkgName := map[string]string{} // dir -> package name
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
		dir := filepath.ToSlash(filepath.Dir(path))
		pkgName[dir] = f.Name.Name
		files = append(files, parsed{dir, f})
		return nil
	})
	if err != nil {
		return nil, err
	}
	s := &moduleScan{
		uses: map[string]bool{}, selected: map[string]bool{},
		written: map[string]bool{}, unkeyed: map[string]bool{},
		published: map[string]string{},
	}
	for _, pf := range files {
		s.scanFile(fset, pf.dir, pf.f, pkgName)
	}
	return s, nil
}

// scanFile records the declarations of f (when it lies under internal/)
// and its uses, selectors, field writes and published kinds.
func (s *moduleScan) scanFile(fset *token.FileSet, dir string, f *ast.File, pkgName map[string]string) {
	pkg := f.Name.Name
	imports := map[string]string{} // local name -> package dir
	for _, im := range f.Imports {
		p := strings.Trim(im.Path.Value, `"`)
		if !strings.HasPrefix(p, modulePrefix) {
			continue
		}
		d := strings.TrimPrefix(p, modulePrefix)
		name := pkgName[d]
		if im.Name != nil {
			name = im.Name.Name
		}
		imports[name] = d
	}
	internal := strings.HasPrefix(dir, "internal/")
	notUse := map[*ast.Ident]bool{}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			notUse[decl.Name] = true
			if decl.Recv != nil {
				recv := receiverType(decl.Recv.List[0].Type)
				notUse[recv] = true
				if internal && decl.Name.IsExported() {
					s.methods = append(s.methods, declared{
						key: pkg + "." + recv.Name + "." + decl.Name.Name, use: decl.Name.Name,
						typ: dir + "." + recv.Name, pos: fset.Position(decl.Pos()).String(), kind: "method",
					})
				}
			} else if internal && decl.Name.IsExported() {
				s.decls = append(s.decls, declared{key: pkg + "." + decl.Name.Name, use: dir + "." + decl.Name.Name,
					pos: fset.Position(decl.Pos()).String(), kind: "func"})
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					notUse[spec.Name] = true
					if !internal || !spec.Name.IsExported() {
						continue
					}
					s.decls = append(s.decls, declared{key: pkg + "." + spec.Name.Name, use: dir + "." + spec.Name.Name,
						pos: fset.Position(spec.Pos()).String(), kind: "type"})
					st, ok := spec.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, fld := range st.Fields.List {
						for _, n := range fld.Names {
							if n.IsExported() {
								s.fields = append(s.fields, declared{
									key: pkg + "." + spec.Name.Name + "." + n.Name, use: n.Name,
									typ: dir + "." + spec.Name.Name, pos: fset.Position(n.Pos()).String(), kind: "field",
								})
							}
						}
					}
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						notUse[n] = true
						if internal && n.IsExported() {
							s.decls = append(s.decls, declared{key: pkg + "." + n.Name, use: dir + "." + n.Name,
								pos: fset.Position(n.Pos()).String(), kind: decl.Tok.String()})
						}
					}
				}
			}
		}
	}
	// writtenField marks the field an assignment target, ++/-- operand or
	// & operand reaches: x.F, x.F[i], *x.F and (x.F) all write F.
	writtenField := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
				continue
			case *ast.IndexExpr:
				e = x.X
				continue
			case *ast.StarExpr:
				e = x.X
				continue
			case *ast.SelectorExpr:
				s.written[x.Sel.Name] = true
			}
			return
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Field:
			for _, name := range n.Names {
				notUse[name] = true
			}
		case *ast.SelectorExpr:
			notUse[n.Sel] = true
			if x, ok := n.X.(*ast.Ident); ok {
				if d, ok := imports[x.Name]; ok {
					notUse[x] = true
					s.uses[d+"."+n.Sel.Name] = true
					return false
				}
			}
			s.selected[n.Sel.Name] = true
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					if typ := litType(dir, n.Type, imports); typ != "" {
						s.unkeyed[typ] = true
					}
					continue
				}
				if key, ok := kv.Key.(*ast.Ident); ok {
					notUse[key] = true
					s.written[key.Name] = true
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				writtenField(lhs)
			}
		case *ast.IncDecStmt:
			writtenField(n.X)
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Publish" || len(n.Args) == 0 {
				break
			}
			if lit, ok := n.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if kind, err := strconv.Unquote(lit.Value); err == nil {
					s.published[kind] = fset.Position(lit.Pos()).String()
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				writtenField(n.X)
			}
		case *ast.Ident:
			if !notUse[n] {
				s.uses[dir+"."+n.Name] = true
			}
		}
		return true
	})
}

// litType names the struct type of a composite literal as dir.Type, or ""
// when the literal's type is not a named type this scan can resolve.
func litType(dir string, typ ast.Expr, imports map[string]string) string {
	switch t := typ.(type) {
	case *ast.Ident:
		return dir + "." + t.Name
	case *ast.SelectorExpr:
		if x, ok := t.X.(*ast.Ident); ok {
			if d, ok := imports[x.Name]; ok {
				return d + "." + t.Sel.Name
			}
		}
	}
	return ""
}

// receiverType returns the type name of a method receiver: T for T, *T,
// T[P] and *T[P].
func receiverType(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x
		default:
			panic("unexpected receiver type expression")
		}
	}
}

// reachableTypes type-checks package depint from source and returns the
// named types, as dir.Type, that a program importing only depint can get
// a value of: depint's exported types and aliases, the results of its
// exported functions, the types of its exported vars, and, for each type
// reached, its exported fields and the results of its exported methods.
// Parameter types do not count: a caller must already hold such a value.
func reachableTypes(t *testing.T) map[string]bool {
	t.Helper()
	reachOnce.Do(func() {
		fset := token.NewFileSet()
		imp := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
		pkg, err := imp.ImportFrom("repro", ".", 0)
		if err != nil {
			reachErr = err
			return
		}
		reachResult = map[string]bool{}
		var walk func(types.Type)
		sig := func(s *types.Signature) {
			for i := 0; i < s.Results().Len(); i++ {
				walk(s.Results().At(i).Type())
			}
		}
		walk = func(typ types.Type) {
			switch typ := types.Unalias(typ).(type) {
			case *types.Named:
				typ = typ.Origin()
				obj := typ.Obj()
				if obj.Pkg() == nil {
					return
				}
				key := strings.TrimPrefix(obj.Pkg().Path(), modulePrefix) + "." + obj.Name()
				if reachResult[key] {
					return
				}
				reachResult[key] = true
				walk(typ.Underlying())
				for i := 0; i < typ.NumMethods(); i++ {
					if m := typ.Method(i); m.Exported() {
						sig(m.Type().(*types.Signature))
					}
				}
			case *types.Pointer:
				walk(typ.Elem())
			case *types.Slice:
				walk(typ.Elem())
			case *types.Array:
				walk(typ.Elem())
			case *types.Map:
				walk(typ.Key())
				walk(typ.Elem())
			case *types.Chan:
				walk(typ.Elem())
			case *types.Struct:
				for i := 0; i < typ.NumFields(); i++ {
					if f := typ.Field(i); f.Exported() {
						walk(f.Type())
					}
				}
			case *types.Interface:
				for i := 0; i < typ.NumMethods(); i++ {
					if m := typ.Method(i); m.Exported() {
						sig(m.Type().(*types.Signature))
					}
				}
			case *types.Signature:
				sig(typ)
			}
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if obj := scope.Lookup(name); obj.Exported() {
				walk(obj.Type())
			}
		}
	})
	if reachErr != nil {
		t.Fatal(reachErr)
	}
	return reachResult
}

// checkDead fails on each declaration that dead reports and deadAllowed
// does not list, and on each deadAllowed entry that dead no longer
// reports: it gained a user.
func checkDead(t *testing.T, decls []declared, dead func(declared) bool, advice string) {
	t.Helper()
	for _, d := range decls {
		_, allowed := deadAllowed[d.key]
		switch isDead := dead(d); {
		case isDead && !allowed:
			t.Errorf("%s %s (%s) %s", d.kind, d.key, d.pos, advice)
		case !isDead && allowed:
			t.Errorf("deadAllowed lists %s, which now has a user: drop the entry", d.key)
		}
	}
}

// TestInternalFuncsHaveCallers fails on an exported package-level
// function, var, const or type under internal/ that no non-test file of
// the module uses: code that only its own unit test runs. A use is a
// pkg.Name selector through an import of the package, or a bare
// identifier in one of the package's own non-test files; field names,
// composite-literal keys and declarations are not uses, so a function
// that shares its name with a field is still found. The scan resolves
// import names but not scopes, so a local that shadows an import can
// hide dead code; it cannot report live code that is named.
func TestInternalFuncsHaveCallers(t *testing.T) {
	s := scanModule(t)
	checkDead(t, s.decls, func(d declared) bool { return !s.uses[d.use] },
		"has no user outside tests: delete it, move it into a _test.go file, or use it")
	declaredKeys := map[string]bool{}
	for _, list := range [][]declared{s.decls, s.methods, s.fields} {
		for _, d := range list {
			declaredKeys[d.key] = true
		}
	}
	for key := range deadAllowed {
		if !declaredKeys[key] {
			t.Errorf("deadAllowed lists %s, which is gone: drop the entry", key)
		}
	}
}

// TestInternalMethodsHaveCallers fails on an exported method under
// internal/ whose receiver type a program importing package depint cannot
// get a value of (see reachableTypes), and that no non-test selector
// names. Methods that satisfy standard-library interfaces are exempt.
// Methods of reachable types are public API and are not checked.
func TestInternalMethodsHaveCallers(t *testing.T) {
	s := scanModule(t)
	reach := reachableTypes(t)
	checkDead(t, s.methods, func(d declared) bool {
		return !reach[d.typ] && !stdInterfaceMethods[d.use] && !s.selected[d.use]
	}, "has no caller outside tests and its type is not public API: delete it, move it into a _test.go file, or call it")
}

// TestInternalFieldsAreWritten fails on an exported struct field under
// internal/, on a type a program importing package depint cannot get a
// value of, that no non-test file writes: a setting every program leaves
// at its zero value. A write is a composite-literal key, an assignment,
// ++/--, &x.F, or an unkeyed literal of the struct. Fields match by name,
// so a write to any field of that name counts.
func TestInternalFieldsAreWritten(t *testing.T) {
	s := scanModule(t)
	reach := reachableTypes(t)
	checkDead(t, s.fields, func(d declared) bool {
		return !reach[d.typ] && !s.written[d.use] && !s.unkeyed[d.typ]
	}, "is never written outside tests: make it a constant or delete it")
}
