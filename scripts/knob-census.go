//go:build ignore

// knob-census — which option fields does anybody set?
//
// Type-checks every package of the module (internal/, cmd/, examples/,
// the root package's tests and bench/, tests included) and prints, for
// each exported field of every struct under internal/ whose name ends in
// Options, Config, Profile or CostModel, the files that give it a value:
// a keyed or positional composite-literal element, an assignment, or an
// increment. Setters are split three ways:
//
//	out   non-test files outside the package that declares the struct
//	in    non-test files of the declaring package (default-fill, presets)
//	test  _test.go files anywhere
//
// A field with an empty "out" column is a value no caller chooses; the
// rule it serves (DESIGN.md "Configuration surface") is that a knob is a
// value two callers disagree on. Report-only: it edits nothing and exits
// non-zero only when a package fails to parse or type-check.
//
// Standard library only (go/types with the source importer, so nothing
// is downloaded). Run from the repository root:
//
//	go run scripts/knob-census.go
package main

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
	"regexp"
	"sort"
	"strings"
)

const module = "repro"

var optionStruct = regexp.MustCompile(`(Options|Config|Profile|CostModel)$`)

// setters records who sets one field.
type setters struct{ out, in, test map[string]bool }

type census struct {
	fset   *token.FileSet
	std    types.Importer
	pkgs   map[string]*types.Package // import path -> non-test package
	fields map[string]*setters       // "pkgpath.Struct.Field"
	order  []string
	failed bool
}

func main() {
	c := &census{
		fset:   token.NewFileSet(),
		pkgs:   map[string]*types.Package{},
		fields: map[string]*setters{},
	}
	c.std = importer.ForCompiler(c.fset, "source", nil)

	var dirs []string
	for _, root := range []string{".", "internal", "cmd", "examples", "bench"} {
		filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return nil
			}
			if root == "." && path != "." || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if m, _ := filepath.Glob(filepath.Join(path, "*.go")); len(m) > 0 {
				dirs = append(dirs, path)
			}
			return nil
		})
	}
	// Declare first, so that a setter met before its struct's own
	// directory (the root package's tests) is not missed.
	for _, dir := range dirs {
		if strings.HasPrefix(dir, "internal") {
			if p, _ := c.Import(importPath(dir)); p != nil {
				c.declare(p)
			}
		}
	}
	for _, dir := range dirs {
		c.scan(dir)
	}
	c.report()
	if c.failed {
		os.Exit(1)
	}
}

func importPath(dir string) string {
	if dir == "." {
		return module
	}
	return module + "/" + filepath.ToSlash(dir)
}

// Import resolves module packages from their directories and everything
// else from GOROOT source.
func (c *census) Import(path string) (*types.Package, error) {
	if path != module && !strings.HasPrefix(path, module+"/") {
		return c.std.Import(path)
	}
	if p, ok := c.pkgs[path]; ok {
		return p, nil
	}
	dir := strings.TrimPrefix(strings.TrimPrefix(path, module), "/")
	if dir == "" {
		dir = "."
	}
	files, _, _ := c.parse(dir)
	p := c.check(path, files, nil)
	c.pkgs[path] = p
	return p, nil
}

// parse splits a directory's files into the package proper, its
// in-package tests and its external (_test package) tests. Files whose
// build constraints the default context does not satisfy are skipped.
func (c *census) parse(dir string) (pkg, inTest, extTest []*ast.File) {
	names, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	for _, name := range names {
		if ok, _ := build.Default.MatchFile(dir, filepath.Base(name)); !ok {
			continue
		}
		f, err := parser.ParseFile(c.fset, name, nil, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "knob-census:", err)
			c.failed = true
			continue
		}
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			pkg = append(pkg, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			extTest = append(extTest, f)
		default:
			inTest = append(inTest, f)
		}
	}
	return pkg, inTest, extTest
}

// check type-checks one package; errors are reported as they are found
// and fail the run at the end.
func (c *census) check(path string, files []*ast.File, info *types.Info) *types.Package {
	conf := types.Config{Importer: c, Error: func(err error) {
		fmt.Fprintln(os.Stderr, "knob-census:", err)
		c.failed = true
	}}
	p, _ := conf.Check(path, c.fset, files, info)
	return p
}

// scan records every setter in one directory's files. The package is
// checked with its in-package tests (so their literals resolve) and its
// external test package after it; fields are keyed by name, not object,
// so the copies agree with what declare saw.
func (c *census) scan(dir string) {
	pkg, inTest, extTest := c.parse(dir)
	path := importPath(dir)
	var under *types.Package
	for i, set := range [][]*ast.File{append(pkg, inTest...), extTest} {
		if len(set) == 0 {
			continue
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		if i == 1 {
			if len(inTest) > 0 {
				defer c.testVariant(path, under)()
			}
			path += "_test"
		}
		if p := c.check(path, set, info); i == 0 {
			under = p
		}
		for _, f := range set {
			c.record(path, f, info)
		}
	}
}

// testVariant makes path resolve to under, the package checked with its
// in-package tests, as go test builds an external test package: every
// cached module package that imports path is dropped, so Import checks
// it again against under. The returned func restores the cache.
func (c *census) testVariant(path string, under *types.Package) func() {
	saved := c.pkgs
	c.pkgs = map[string]*types.Package{path: under}
	for p, pkg := range saved {
		if p != path && !dependsOn(pkg, path, map[*types.Package]bool{}) {
			c.pkgs[p] = pkg
		}
	}
	return func() { c.pkgs = saved }
}

// dependsOn reports whether p imports path, directly or not.
func dependsOn(p *types.Package, path string, seen map[*types.Package]bool) bool {
	if seen[p] {
		return false
	}
	seen[p] = true
	for _, q := range p.Imports() {
		if q.Path() == path || dependsOn(q, path, seen) {
			return true
		}
	}
	return false
}

// declare registers the exported fields of p's option structs.
func (c *census) declare(p *types.Package) {
	scope := p.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !optionStruct.MatchString(name) {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				key := p.Path() + "." + name + "." + f.Name()
				if c.fields[key] == nil {
					c.fields[key] = &setters{map[string]bool{}, map[string]bool{}, map[string]bool{}}
					c.order = append(c.order, key)
				}
			}
		}
	}
}

// fieldKey names the field v of the named struct type t, or "".
func fieldKey(t types.Type, field string) string {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name() + "." + field
}

func (c *census) record(path string, f *ast.File, info *types.Info) {
	file := c.fset.Position(f.Pos()).Filename
	hit := func(key string) {
		s := c.fields[key]
		if s == nil {
			return
		}
		declaring := key[:strings.LastIndex(key[:strings.LastIndex(key, ".")], ".")]
		switch {
		case strings.HasSuffix(file, "_test.go"):
			s.test[file] = true
		case strings.TrimSuffix(path, "_test") == declaring:
			s.in[file] = true
		default:
			s.out[file] = true
		}
	}
	lhs := func(e ast.Expr) {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				hit(fieldKey(s.Recv(), sel.Sel.Name))
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			tv, ok := info.Types[n]
			if !ok {
				break
			}
			st, ok := tv.Type.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						hit(fieldKey(tv.Type, id.Name))
					}
				} else if i < st.NumFields() {
					hit(fieldKey(tv.Type, st.Field(i).Name()))
				}
			}
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				lhs(e)
			}
		case *ast.IncDecStmt:
			lhs(n.X)
		}
		return true
	})
}

func (c *census) report() {
	sort.Strings(c.order)
	list := func(m map[string]bool) string {
		if len(m) == 0 {
			return "-"
		}
		var s []string
		for f := range m {
			s = append(s, f)
		}
		sort.Strings(s)
		return strings.Join(s, " ")
	}
	structs := map[string]bool{}
	var noOut, noOutNoTest int
	for _, key := range c.order {
		s := c.fields[key]
		structs[key[:strings.LastIndex(key, ".")]] = true
		if len(s.out) == 0 {
			noOut++
			if len(s.test) == 0 {
				noOutNoTest++
			}
		}
		fmt.Printf("%s\n\tout:  %s\n\tin:   %s\n\ttest: %s\n",
			strings.TrimPrefix(key, module+"/internal/"), list(s.out), list(s.in), list(s.test))
	}
	fmt.Printf("\noption structs under internal/: %d\nexported fields: %d\nset by no non-test file outside the declaring package: %d\n  of those, set by no test either: %d\n",
		len(structs), len(c.order), noOut, noOutNoTest)
}
