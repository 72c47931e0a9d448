package rdffrag

// The exports checker: every exported function, and every method of an
// exported type, declared under internal/ must have a caller that needs
// it exported, and every exported field of an exported struct type there
// must have a writer. It type-checks the module and benchmark/layers from
// source with go/types over the export data `go list -export` builds,
// and resolves each reference to the object it names, so a method is
// told apart from every other method of the same name.
//
// An export fails when no non-test file references it (delete it and
// point its tests at what production runs), or when only non-test files
// of its own package do and no file of any other package does, tests
// included (unexport it). A method passes when its type implements an
// interface the module declares that has the method, or when it is
// named Error, String, Unwrap or ServeHTTP. A field fails when no
// non-test file writes it: assigns it, increments or decrements it, sets
// it in a composite literal (keyed or not), takes its address or calls a
// pointer method on it. A field nobody writes is a knob nobody turns:
// delete it and inline its default. A package that no non-test file
// imports counts tests of other packages as its callers and writers.
// What is left is listed in exportAllowlist, each entry with its reason.

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

// exportAllowlist keeps exports that have no caller (a field: no writer)
// the rules accept, keyed by the name the checker reports
// (package.Type.Method, package.Type.Field or package.Func, the package
// named by its path under internal/). An entry that names no export, or
// one that has gained a non-test caller or writer, fails the checker, so
// the list cannot go stale.
var exportAllowlist = map[string]string{
	"rdf.Graph.SetAutoCompact": "test hook: holds compaction off so tests can read a graph with a delta",
	"wal.ChaosFS.Crash":        "test hook: the crash soak tears the log's unsynced tail through it",
	"wal.ChaosFS.SetKill":      "test hook: the crash soak arms the kill point through it",
	"rdf.WriteNTriples":        "round-trip writer FuzzScanNTriples checks the N-Triples scanner against",
	"rdf.WriteTurtle":          "round-trip writer FuzzReadTurtle checks the Turtle reader against",

	"exec.Engine.BatchSize":              "test hook: the chaos soak needs cuts mid-stream on its 80-person fixture",
	"cluster.ChaosConfig.DelayProb":      "test hook: the straggler tests stall a share of evaluations",
	"cluster.ChaosConfig.StragglerDelay": "test hook: the straggler tests set how long a stall lasts",

	// Reached only by benchmark/layers' replay (ROADMAP item 5): each
	// goes when the replay does.
	"cluster.Cluster.Eval":            "benchmark/layers replay, ROADMAP item 5",
	"cluster.HashJoin":                "benchmark/layers replay, ROADMAP item 5",
	"match.FindBatches":               "benchmark/layers replay, ROADMAP item 5",
	"decompose.Decomposer.Decompose":  "benchmark/layers replay, ROADMAP item 5",
	"dict.Dictionary.RelevantEntries": "benchmark/layers replay, ROADMAP item 5",
	"wal.Log.Sync":                    "benchmark/layers replay, ROADMAP item 5",
	"transport.SiteServer.Metrics":    "benchmark/layers replay, ROADMAP item 5",
	"cluster.NetStats.Snapshot":       "benchmark/layers replay, ROADMAP item 5",
}

// exportClass is what the checker makes of one export.
type exportClass string

const (
	exportLive      exportClass = "live"            // another package needs it exported; a field: a non-test file writes it
	exportDead      exportClass = "dead"            // no non-test file references (a field: writes) it
	exportPrivate   exportClass = "package-private" // only its own package's non-test files reference it
	exportInterface exportClass = "interface"       // a method reached through a module interface
	exportStdName   exportClass = "std name"        // Error, String, Unwrap or ServeHTTP
	exportAllowed   exportClass = "allowlisted"     // dead or package-private, and in the allowlist
)

// exportReport is the checker's verdict on a module.
type exportReport struct {
	class map[string]exportClass // by reported name
	extra map[string]bool        // whether the extra module references it
	// problems lists each failing export and each stale allowlist entry.
	problems []string
}

func TestExportsHaveCallers(t *testing.T) {
	t.Parallel()
	rep, err := checkExports(".", []string{"benchmark", "./layers"}, exportAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.problems {
		t.Error(p)
	}
	for name, why := range exportAllowlist {
		if strings.Contains(why, "ROADMAP item 5") && !rep.extra[name] {
			t.Errorf("allowlist entry %s: benchmark/layers no longer calls it; drop the entry", name)
		}
	}
}

// TestExportsCheckerClasses runs the checker on testdata/exports, a
// module of its own with one export of each class and one field for each
// way of writing it.
func TestExportsCheckerClasses(t *testing.T) {
	t.Parallel()
	dir := filepath.Join("testdata", "exports")
	hooks := map[string]string{"lib.Hook": "test hook", "lib.Config.Tuned": "test hook"}
	rep, err := checkExports(dir, nil, hooks)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]exportClass{
		"lib.Dead":         exportDead,
		"lib.Private":      exportPrivate,
		"lib.Used":         exportLive,
		"lib.Sum":          exportLive,
		"lib.Table.Used":   exportDead, // same name as a live function
		"lib.Thing.Run":    exportInterface,
		"lib.Thing.String": exportStdName,
		"lib.Hook":         exportAllowed,
		"testonly.Helper":  exportLive, // its package is imported by tests alone
		"testonly.Unused":  exportDead,

		"lib.Config.Assigned":  exportLive, // c.Assigned = 2
		"lib.Config.Keyed":     exportLive, // &lib.Config{Keyed: 1}
		"lib.Config.Counted":   exportLive, // c.Counted++
		"lib.Config.Addressed": exportLive, // fmt.Sscan(…, &c.Addressed)
		"lib.Config.Hits":      exportLive, // c.Hits.Add(5), a pointer method
		"lib.Pair.Left":        exportLive, // Pair{…, …}, unkeyed
		"lib.Pair.Right":       exportLive,
		"lib.Config.Knob":      exportDead, // only a test writes it
		"lib.Config.Unset":     exportDead, // only read
		"lib.Config.Tuned":     exportAllowed,
		"testonly.Opts.Level":  exportLive, // its package is imported by tests alone
	}
	for name, c := range want {
		if got := rep.class[name]; got != c {
			t.Errorf("%s: class %q, want %q", name, got, c)
		}
	}
	if len(rep.class) != len(want) {
		t.Errorf("classified %d exports, want %d: %v", len(rep.class), len(want), rep.class)
	}
	failing := []string{"lib.Dead", "lib.Private", "lib.Table.Used", "testonly.Unused", "lib.Config.Knob", "lib.Config.Unset"}
	for _, n := range failing {
		if !mentions(rep.problems, n+":") {
			t.Errorf("no problem reported for %s: %q", n, rep.problems)
		}
	}
	if len(rep.problems) != len(failing) {
		t.Errorf("%d problems, want %d: %q", len(rep.problems), len(failing), rep.problems)
	}

	// A stale allowlist fails: one entry names no export, one names an
	// export production calls.
	rep, err = checkExports(dir, nil, map[string]string{"lib.Gone": "deleted", "lib.Used": "hook", "lib.Config.Keyed": "hook", "lib.Hook": "test hook"})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"lib.Gone", "lib.Used", "lib.Config.Keyed"} {
		if !mentions(rep.problems, "allowlist entry "+n+":") {
			t.Errorf("stale allowlist entry %s not reported: %q", n, rep.problems)
		}
	}
}

func mentions(lines []string, s string) bool {
	for _, l := range lines {
		if strings.Contains(l, s) {
			return true
		}
	}
	return false
}

// listedPackage is the part of `go list -json` the checker reads.
type listedPackage struct {
	ImportPath   string
	Dir          string
	Name         string
	Export       string
	ForTest      string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Imports      []string
	ImportMap    map[string]string
	Module       *struct {
		Path string
		Main bool
	}
}

// goList runs `go list -deps -test -export -json` on patterns in dir.
func goList(dir string, patterns ...string) ([]*listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-deps", "-test", "-export", "-json"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []*listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, fmt.Errorf("go list in %s: %v", dir, err)
		}
		pkgs = append(pkgs, p)
	}
}

// basePath strips the " [p.test]" suffix go list gives test variants.
func basePath(id string) string {
	if i := strings.IndexByte(id, ' '); i >= 0 {
		return id[:i]
	}
	return id
}

// exportDecl is one export the rules cover.
type exportDecl struct {
	pkg   string // import path of the declaring package
	name  string // reported name
	recv  string // receiver type name, or the struct type of a field; "" for a function
	fname string // function, method or field name
	field bool
	pos   token.Position
}

// exportRef is one package referring to an export. An external test
// package counts as the package it tests.
type exportRef struct {
	pkg  string // import path
	test bool
}

type exportChecker struct {
	fset     *token.FileSet
	internal string // module path + "/internal/"
	decls    map[string]*exportDecl
	refs     map[string]map[exportRef]bool // a function's callers, a field's writers
	extra    map[string]bool               // keys the extra module's packages reference
	owners   map[*types.Package]map[*types.Var]string
	errs     []string
}

// checkExports type-checks the module in dir and classifies every
// export under its internal/ against allow. extra, when given, is the
// directory of another module whose packages extra[1:] reach into
// internal/ (benchmark/layers): it is type-checked too, and its
// references are reported in exportReport.extra but make no export live.
func checkExports(dir string, extra []string, allow map[string]string) (*exportReport, error) {
	var xpkgs []*listedPackage
	xerr := make(chan error, 1)
	go func() {
		var err error
		if len(extra) > 0 {
			xpkgs, err = goList(filepath.Join(dir, extra[0]), extra[1:]...)
		}
		xerr <- err
	}()
	pkgs, err := goList(dir, "./...")
	if err2 := <-xerr; err == nil {
		err = err2
	}
	if err != nil {
		return nil, err
	}
	var mod string
	for _, p := range pkgs {
		if p.Module != nil && p.Module.Main {
			mod = p.Module.Path
			break
		}
	}
	c := &exportChecker{
		fset:     token.NewFileSet(),
		internal: mod + "/internal/",
		decls:    map[string]*exportDecl{},
		refs:     map[string]map[exportRef]bool{},
		extra:    map[string]bool{},
		owners:   map[*types.Package]map[*types.Var]string{},
	}
	c.checkAll(pkgs, false)
	c.checkAll(xpkgs, true)
	if len(c.errs) > 0 {
		return nil, fmt.Errorf("type-checking:\n%s", strings.Join(c.errs, "\n"))
	}
	reached, err := c.interfaceMethods(pkgs)
	if err != nil {
		return nil, err
	}

	// A package no non-test file imports has tests as its only callers.
	imported := map[string]bool{}
	for _, p := range pkgs {
		if p.ForTest == "" && p.Module != nil && p.Module.Main {
			for _, imp := range p.Imports {
				imported[imp] = true
			}
		}
	}

	rep := &exportReport{class: map[string]exportClass{}, extra: map[string]bool{}}
	for key, d := range c.decls {
		var ownProd, otherProd, otherTest bool
		for r := range c.refs[key] {
			switch own := r.pkg == d.pkg; {
			case !r.test && own:
				ownProd = true
			case !r.test:
				otherProd = true
			case !own:
				otherTest = true
			}
		}
		called := ownProd || otherProd || (otherTest && !imported[d.pkg])
		var cl exportClass
		switch {
		case d.field && called:
			cl = exportLive // a field needs a writer, not one in another package
		case d.recv != "" && (d.fname == "Error" || d.fname == "String" || d.fname == "Unwrap" || d.fname == "ServeHTTP"):
			cl = exportStdName
		case d.recv != "" && reached[key]:
			cl = exportInterface
		case !called:
			cl = exportDead
		case !otherProd && !otherTest:
			cl = exportPrivate
		default:
			cl = exportLive
		}
		where := fmt.Sprintf("%s:%d", d.pos.Filename, d.pos.Line)
		switch _, allowed := allow[d.name]; {
		case allowed && (cl == exportDead || cl == exportPrivate):
			cl = exportAllowed
		case allowed:
			rep.problems = append(rep.problems, fmt.Sprintf("allowlist entry %s: %s is %s now; drop the entry", d.name, where, cl))
		case cl == exportDead && d.field:
			rep.problems = append(rep.problems, fmt.Sprintf("%s: %s: no non-test file writes it; delete it and inline its default", where, d.name))
		case cl == exportDead:
			rep.problems = append(rep.problems, fmt.Sprintf("%s: %s: no non-test file calls it; delete it and point its tests at what production runs", where, d.name))
		case cl == exportPrivate:
			rep.problems = append(rep.problems, fmt.Sprintf("%s: %s: only its own package calls it; unexport it", where, d.name))
		}
		rep.class[d.name] = cl
		rep.extra[d.name] = c.extra[key]
	}
	for name := range allow {
		if _, ok := rep.class[name]; !ok {
			rep.problems = append(rep.problems, fmt.Sprintf("allowlist entry %s: no such export under internal/; drop the entry", name))
		}
	}
	sort.Strings(rep.problems)
	return rep, nil
}

// checkAll type-checks from source each package of the main module in
// pkgs: in place of a package, its test variant where it has one, and
// its external test package.
func (c *exportChecker) checkAll(pkgs []*listedPackage, extra bool) {
	byID := map[string]*listedPackage{}
	for _, p := range pkgs {
		byID[p.ImportPath] = p
	}
	for _, p := range pkgs {
		if p.Module == nil || !p.Module.Main || strings.HasSuffix(p.ImportPath, ".test") {
			continue
		}
		b := basePath(p.ImportPath)
		if p.ForTest == "" {
			if byID[b+" ["+b+".test]"] != nil {
				continue // checked through its test variant
			}
		} else if b != p.ForTest && b != p.ForTest+"_test" {
			continue // a dependency recompiled for another package's test
		}
		c.check(p, byID, extra)
	}
}

// check type-checks one package and records its exports and references.
func (c *exportChecker) check(p *listedPackage, byID map[string]*listedPackage, extra bool) {
	testFile := map[string]bool{}
	for _, f := range append(p.TestGoFiles, p.XTestGoFiles...) {
		testFile[filepath.Join(p.Dir, f)] = true
	}
	path := basePath(p.ImportPath)
	xtest := p.ForTest != "" && path == p.ForTest+"_test"
	var files []*ast.File
	for _, f := range p.GoFiles {
		af, err := parser.ParseFile(c.fset, filepath.Join(p.Dir, f), nil, parser.SkipObjectResolution)
		if err != nil {
			c.errs = append(c.errs, err.Error())
			return
		}
		files = append(files, af)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		id := path
		if m, ok := p.ImportMap[path]; ok {
			id = m
		} else if v := path + " [" + p.ForTest + ".test]"; p.ForTest != "" && byID[v] != nil {
			id = v
		}
		dep := byID[id]
		if dep == nil || dep.Export == "" {
			return nil, fmt.Errorf("no export data for %s", id)
		}
		return os.Open(dep.Export)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer: importer.ForCompiler(c.fset, "gc", lookup),
		Error:    func(err error) { c.errs = append(c.errs, err.Error()) },
	}
	conf.Check(path, c.fset, files, info)

	refPkg := path
	if xtest {
		refPkg = p.ForTest
	}
	for _, f := range files {
		isTest := xtest || testFile[c.fset.Position(f.Pos()).Filename]
		ref := func(key string) {
			switch {
			case key == "":
			case extra:
				c.extra[key] = true
			default:
				if c.refs[key] == nil {
					c.refs[key] = map[exportRef]bool{}
				}
				c.refs[key][exportRef{pkg: refPkg, test: isTest}] = true
			}
		}
		// write refers to each field expression e writes through.
		var write func(e ast.Expr)
		write = func(e ast.Expr) {
			switch e := e.(type) {
			case *ast.ParenExpr:
				write(e.X)
			case *ast.IndexExpr:
				write(e.X)
			case *ast.SelectorExpr:
				sel := info.Selections[e]
				if sel == nil || sel.Kind() != types.FieldVal {
					return
				}
				ref(c.fieldKey(sel.Obj().(*types.Var)))
				if _, ptr := info.TypeOf(e.X).Underlying().(*types.Pointer); !ptr {
					write(e.X) // a field of a struct value is a part of it
				}
			}
		}
		for _, decl := range f.Decls {
			var self types.Object // a function's calls to itself are no callers
			switch d := decl.(type) {
			case *ast.FuncDecl:
				self = info.Defs[d.Name]
				if !extra && !isTest && strings.HasPrefix(path, c.internal) {
					c.declare(path, d, self)
				}
			case *ast.GenDecl:
				if !extra && !isTest && strings.HasPrefix(path, c.internal) {
					c.declareFields(path, d, info)
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if fn, ok := info.Uses[n].(*types.Func); ok && fn.Origin() != self {
						ref(c.key(fn))
					}
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						write(l)
					}
				case *ast.IncDecStmt:
					write(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						write(n.X)
					}
				case *ast.SelectorExpr:
					// A pointer method called on an addressable field
					// takes the field's address.
					if sel := info.Selections[n]; sel != nil && sel.Kind() == types.MethodVal {
						_, ptrRecv := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
						_, ptrX := info.TypeOf(n.X).Underlying().(*types.Pointer)
						if ptrRecv && !ptrX {
							write(n.X)
						}
					}
				case *ast.CompositeLit:
					t := info.TypeOf(n).Underlying()
					if ptr, ok := t.(*types.Pointer); ok {
						t = ptr.Elem().Underlying() // an elided &T
					}
					st, ok := t.(*types.Struct)
					if !ok {
						return true
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
								ref(c.fieldKey(v))
							}
						} else if i < st.NumFields() {
							ref(c.fieldKey(st.Field(i)))
						}
					}
				}
				return true
			})
		}
	}
}

// declare records fd when the rules cover it: an exported function, or
// an exported method of an exported type.
func (c *exportChecker) declare(path string, fd *ast.FuncDecl, obj types.Object) {
	fn, ok := obj.(*types.Func)
	if !ok || !fn.Exported() {
		return
	}
	recv := recvName(fn)
	if fd.Recv != nil && !token.IsExported(recv) {
		return
	}
	key := c.key(fn)
	c.decls[key] = &exportDecl{
		pkg:   path,
		name:  strings.TrimPrefix(key, c.internal),
		recv:  recv,
		fname: fn.Name(),
		pos:   c.fset.Position(fd.Name.Pos()),
	}
}

// declareFields records the exported fields of each exported struct type
// gd declares. An embedded field is not covered: it is written through
// the fields it promotes.
func (c *exportChecker) declareFields(path string, gd *ast.GenDecl, info *types.Info) {
	for _, spec := range gd.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok || !ts.Name.IsExported() {
			continue
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			continue
		}
		for _, fld := range st.Fields.List {
			for _, name := range fld.Names {
				v, ok := info.Defs[name].(*types.Var)
				if !ok || !v.Exported() {
					continue
				}
				key := c.fieldKey(v)
				c.decls[key] = &exportDecl{
					pkg:   path,
					name:  strings.TrimPrefix(key, c.internal),
					recv:  ts.Name.Name,
					fname: v.Name(),
					field: true,
					pos:   c.fset.Position(name.Pos()),
				}
			}
		}
	}
}

// fieldKey names a field by package path, struct type and name; "" for
// what no covered field under internal/ can be.
func (c *exportChecker) fieldKey(v *types.Var) string {
	v = v.Origin()
	if !v.IsField() || v.Pkg() == nil || !strings.HasPrefix(v.Pkg().Path(), c.internal) {
		return ""
	}
	owners := c.owners[v.Pkg()]
	if owners == nil {
		// Every checked package and every import is a types.Package of
		// its own, so each is indexed once, named type by named type.
		owners = map[*types.Var]string{}
		for _, n := range v.Pkg().Scope().Names() {
			tn, ok := v.Pkg().Scope().Lookup(n).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := range st.NumFields() {
					owners[st.Field(i)] = tn.Name()
				}
			}
		}
		c.owners[v.Pkg()] = owners
	}
	owner, ok := owners[v]
	if !ok {
		return "" // a field of an anonymous struct
	}
	return v.Pkg().Path() + "." + owner + "." + v.Name()
}

// recvName is the name of fn's receiver type, or "" for a function.
func recvName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Origin().Obj().Name()
	}
	return "" // an interface's method
}

// key names fn by package path, receiver type and name; "" for what no
// export under internal/ can be.
func (c *exportChecker) key(fn *types.Func) string {
	fn = fn.Origin()
	if fn.Pkg() == nil || !strings.HasPrefix(fn.Pkg().Path(), c.internal) {
		return ""
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		recv := recvName(fn)
		if recv == "" {
			return ""
		}
		return fn.Pkg().Path() + "." + recv + "." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// interfaceMethods returns the keys of the methods that a type under
// internal/ has because it implements an interface the module declares.
// It loads every package from export data through one importer, so the
// types compared are the same objects.
func (c *exportChecker) interfaceMethods(pkgs []*listedPackage) (map[string]bool, error) {
	byPath := map[string]*listedPackage{}
	for _, p := range pkgs {
		if p.ForTest == "" {
			byPath[p.ImportPath] = p
		}
	}
	imp := importer.ForCompiler(c.fset, "gc", func(path string) (io.ReadCloser, error) {
		if p := byPath[path]; p != nil && p.Export != "" {
			return os.Open(p.Export)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	var ifaces []*types.Interface
	var named []*types.Named
	for _, p := range pkgs {
		if p.ForTest != "" || p.Module == nil || !p.Module.Main || p.Name == "main" {
			continue
		}
		tp, err := imp.Import(p.ImportPath)
		if err != nil {
			return nil, err
		}
		for _, n := range tp.Scope().Names() {
			tn, ok := tp.Scope().Lookup(n).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			t, ok := tn.Type().(*types.Named)
			if !ok || t.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := t.Underlying().(*types.Interface); ok {
				if it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			} else if tn.Exported() && strings.HasPrefix(p.ImportPath, c.internal) {
				named = append(named, t)
			}
		}
	}
	reached := map[string]bool{}
	for _, t := range named {
		for _, it := range ifaces {
			if !types.Implements(t, it) && !types.Implements(types.NewPointer(t), it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				reached[t.Obj().Pkg().Path()+"."+t.Obj().Name()+"."+it.Method(i).Name()] = true
			}
		}
	}
	return reached, nil
}
