//go:build ignore

// deadcode lists the functions, methods and types in the module's
// non-test Go files that nothing outside them reaches, and exits 1 if
// there is one. Run from the root of a module:
//
//	go run scripts/deadcode.go
//
// A declaration is reached if a chain of references leads to it from a
// root. The roots are:
//   - main and every init function, in every package and in each
//     ignore-tagged script (a //go:build ignore file of package main);
//   - every package-level variable, with its initialiser;
//   - the exported declarations of the package at the module root;
//   - every declaration that a _test.go file of another directory
//     names: shared test support is reached, a package's own tests
//     keep nothing alive;
//   - the allowlist below.
//
// A method is also reached when its receiver type is reached and its
// name is a method of an interface declared in the module, or of a
// standard-library interface the type implements (String, Error,
// WriteTo, ...): such a call goes through an interface, which names no
// declaration.
//
// The host build and the purego build are each checked, and a
// declaration counts as reached if either reaches it. The output is one
// line per unreached declaration, "file:line name lines", where lines
// runs from the func or type keyword to the closing brace.
//
// Packages are type-checked from source with go/types, test variants
// as `go list -deps -test` describes them; the standard library comes
// from the "source" importer. Nothing is downloaded.
//
// The same load checks the Go names in the module's documents
// (docFiles). Every backticked span that is a Go identifier or selector
// (Name, pkg.Name, Type.Method or pkg.Type.Method, optionally ending
// in "()"), whose last identifier is exported and not all upper case,
// must resolve to a declaration: a func, method, type, field, const or
// var of the module, a Test/Fuzz/Benchmark/Example function of one of
// its _test.go files, or an exported name of a standard-library package
// it imports. A qualifier must match the declaration's package (its
// name or the last element of its import path) or its receiver type.
// Each span that resolves to nothing is listed as "file:line span doc".
// A line holding historyMarker exempts the lines after it up to the
// next blank line: a table of deleted names, kept as a record.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// allowlist keeps declarations that no caller reaches on purpose. A
// key is an import path and a type or function name; an entry for a
// type also keeps its methods and its New<Type> constructor.
var allowlist = map[string]string{
	"tgopt/internal/core.IntervalTimeTable":     "DESIGN §1's related-work comparator (Zhou et al.'s interval table), kept as a reproduction surface",
	"tgopt/internal/core.Engine.InvalidateNode": "the §7 node-feature event: the engine-owned write path will call it",
}

// docFiles are the documents whose Go names must resolve.
var docFiles = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}

// historyMarker opens a block of a document that names what is gone on
// purpose; the block ends at the next blank line.
const historyMarker = "<!-- docs-names: history -->"

// listedPackage is the part of `go list -json` this tool reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	Standard   bool
	GoFiles    []string
	ImportMap  map[string]string
}

// decl is one top-level declaration: a function, a method, a type
// spec, or a var or const spec.
type decl struct {
	pkg    string // import path of the declaring package
	file   string
	line   int
	lines  int
	name   string // Name, or Recv.Name for a method
	recv   string // receiver type name of a method
	kind   string // "func", "method", "type", "var" or "const"
	pos    token.Pos
	end    token.Pos
	report bool // a function, method or type: listed if unreached
}

type analysis struct {
	root, modPath string
	fset          *token.FileSet
	std           types.Importer
	files         map[string]*ast.File
	decls         map[token.Pos]*decl // keyed by the declaration's start
	spans         map[string][]*decl  // per non-test file, sorted by pos
	edges         map[token.Pos]map[token.Pos]bool
	roots         map[token.Pos]bool
	ifaceNames    map[string]bool               // method names of module interfaces
	named         map[token.Pos]*types.TypeName // a type decl's object, from any variant
	stdIfaces     []*types.Interface
	stdSeen       map[*types.Package]bool
	typeErrs      []string
	docs          *docIndex
}

func main() {
	root, err := os.Getwd()
	check(err)
	modPath := strings.TrimSpace(run(root, "go", "list", "-m", "-f", "{{.Path}}"))
	// The source importer would run cgo for the standard library's cgo
	// files; the pure-Go variants type-check the same API.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	files := map[string]*ast.File{}

	decls := map[token.Pos]*decl{}
	reached := map[token.Pos]bool{}
	docs := &docIndex{fset: fset, pkgs: map[string][]*types.Package{}, bare: map[string]bool{}, seen: map[*types.Package]bool{}}
	for _, tags := range []string{"", "purego"} {
		a := &analysis{root: root, modPath: modPath, fset: fset, std: std, files: files,
			decls: map[token.Pos]*decl{}, spans: map[string][]*decl{},
			edges: map[token.Pos]map[token.Pos]bool{}, roots: map[token.Pos]bool{},
			ifaceNames: map[string]bool{}, named: map[token.Pos]*types.TypeName{},
			stdSeen: map[*types.Package]bool{}, docs: docs}
		a.load(tags)
		if len(a.typeErrs) > 0 {
			fmt.Fprintf(os.Stderr, "deadcode: %d type errors (build tags %q), first: %s\n", len(a.typeErrs), tags, a.typeErrs[0])
			os.Exit(2)
		}
		for p := range a.reach() {
			reached[p] = true
		}
		for p, d := range a.decls {
			decls[p] = d
		}
	}

	var dead []*decl
	for p, d := range decls {
		if d.report && !reached[p] {
			dead = append(dead, d)
		}
	}
	sort.Slice(dead, func(i, j int) bool {
		if dead[i].file != dead[j].file {
			return dead[i].file < dead[j].file
		}
		return dead[i].line < dead[j].line
	})
	total := 0
	for _, d := range dead {
		fmt.Printf("%s:%d %s %d\n", d.file, d.line, d.name, d.lines)
		total += d.lines
	}
	fmt.Fprintf(os.Stderr, "deadcode: %d unreached declarations, %d lines\n", len(dead), total)
	stale := 0
	for _, doc := range docFiles {
		for _, s := range docs.stale(filepath.Join(root, doc)) {
			fmt.Printf("%s:%d %s doc\n", doc, s.line, s.span)
			stale++
		}
	}
	fmt.Fprintf(os.Stderr, "deadcode: %d doc names resolve to nothing\n", stale)
	if len(dead) > 0 || stale > 0 {
		os.Exit(1)
	}
}

// load type-checks every package variant of one build and records its
// declarations, references and roots.
func (a *analysis) load(tags string) {
	args := []string{"list", "-e", "-deps", "-test", "-json"}
	if tags != "" {
		args = append(args, "-tags", tags)
	}
	out := run(a.root, "go", append(args, "./...")...)
	checked := map[string]*types.Package{}
	dec := json.NewDecoder(strings.NewReader(out))
	for {
		var lp listedPackage
		err := dec.Decode(&lp)
		if err == io.EOF {
			break
		}
		check(err)
		// Standard packages come from the source importer; a ".test"
		// package is the generated test main.
		if lp.Standard || strings.HasSuffix(lp.ImportPath, ".test") {
			continue
		}
		var paths []string
		for _, f := range lp.GoFiles {
			paths = append(paths, filepath.Join(lp.Dir, f))
		}
		checked[lp.ImportPath] = a.check(lp.ImportPath, lp.Name, paths, lp.ImportMap, checked)
	}
	for _, script := range a.ignoredMains() {
		a.check(script, "main", []string{script}, nil, checked)
	}
	a.collectStdInterfaces()
}

// ignoredMains returns the module's //go:build ignore files of package
// main outside testdata: scripts run with `go run FILE`.
func (a *analysis) ignoredMains() []string {
	var mains []string
	check(filepath.WalkDir(a.root, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			name := e.Name()
			if path != a.root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				fileExists(filepath.Join(path, "go.mod"))) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.PackageClauseOnly|parser.ParseComments)
		if err != nil || f.Name.Name != "main" {
			return err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if c.Pos() < f.Package && c.Text == "//go:build ignore" {
					mains = append(mains, path)
					return nil
				}
			}
		}
		return nil
	}))
	return mains
}

// check type-checks one package variant. Its non-test files add
// declarations and references; its test files add roots.
func (a *analysis) check(id, name string, paths []string, importMap map[string]string, checked map[string]*types.Package) *types.Package {
	var files []*ast.File
	for _, p := range paths {
		f, ok := a.files[p]
		if !ok {
			var err error
			f, err = parser.ParseFile(a.fset, p, nil, parser.SkipObjectResolution)
			check(err)
			a.files[p] = f
		}
		files = append(files, f)
		if !isTest(p) {
			a.addDecls(pkgPath(id), p, f, name)
		}
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if mapped, ok := importMap[path]; ok {
				path = mapped
			}
			if p, ok := checked[path]; ok {
				return p, nil
			}
			return a.std.Import(path)
		}),
		Error: func(err error) { a.typeErrs = append(a.typeErrs, err.Error()) },
	}
	pkg, _ := conf.Check(pkgPath(id), a.fset, files, info)
	if pkg != nil {
		a.docs.addModule(pkg)
		for _, imp := range pkg.Imports() {
			if imp.Path() != a.modPath && !strings.HasPrefix(imp.Path(), a.modPath+"/") {
				a.docs.addStd(imp)
			}
		}
	}

	for id, obj := range info.Uses {
		to := a.declAt(obj.Pos())
		if to == nil {
			continue
		}
		file := a.fset.File(id.Pos()).Name()
		if isTest(file) {
			if filepath.Dir(file) != filepath.Join(a.root, filepath.Dir(to.file)) {
				a.roots[to.pos] = true
			}
			continue
		}
		if from := a.declAt(id.Pos()); from != nil && from != to {
			if a.edges[from.pos] == nil {
				a.edges[from.pos] = map[token.Pos]bool{}
			}
			a.edges[from.pos][to.pos] = true
		}
	}
	for expr, tv := range info.Types {
		if _, ok := expr.(*ast.InterfaceType); ok {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					a.ifaceNames[it.Method(i).Name()] = true
				}
			}
		}
	}
	for id, obj := range info.Defs {
		if tn, ok := obj.(*types.TypeName); ok && !isTest(a.fset.File(id.Pos()).Name()) {
			if d := a.declAt(id.Pos()); d != nil && d.kind == "type" && a.named[d.pos] == nil {
				a.named[d.pos] = tn
			}
		}
	}
	if pkg != nil {
		for _, imp := range pkg.Imports() {
			a.walkStd(imp)
		}
	}
	return pkg
}

// addDecls records the top-level declarations of one non-test file,
// once, with the roots they carry.
func (a *analysis) addDecls(pkg, path string, f *ast.File, pkgName string) {
	if _, ok := a.spans[path]; ok {
		return
	}
	rel, _ := filepath.Rel(a.root, path)
	add := func(d *decl) {
		start, end := a.fset.Position(d.pos), a.fset.Position(d.end)
		d.pkg, d.file, d.line, d.lines = pkg, rel, start.Line, end.Line-start.Line+1
		a.decls[d.pos] = d
		a.spans[path] = append(a.spans[path], d)
	}
	exportedRoot := filepath.Dir(path) == a.root
	for _, gd := range f.Decls {
		switch gd := gd.(type) {
		case *ast.FuncDecl:
			d := &decl{name: gd.Name.Name, kind: "func", pos: gd.Pos(), end: gd.End(), report: true}
			if gd.Recv != nil && len(gd.Recv.List) > 0 {
				d.kind, d.recv = "method", recvName(gd.Recv.List[0].Type)
				d.name = d.recv + "." + d.name
			} else if gd.Name.Name == "init" || (pkgName == "main" && gd.Name.Name == "main") ||
				(exportedRoot && gd.Name.IsExported()) {
				a.roots[d.pos] = true
			}
			if gd.Name.Name == "_" {
				d.report = false
			}
			add(d)
		case *ast.GenDecl:
			for _, spec := range gd.Specs {
				pos := spec.Pos()
				if !gd.Lparen.IsValid() {
					pos = gd.Pos()
				}
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add(&decl{name: s.Name.Name, kind: "type", pos: pos, end: s.End(), report: true})
					if exportedRoot && s.Name.IsExported() {
						a.roots[pos] = true
					}
				case *ast.ValueSpec:
					kind := "const"
					if gd.Tok == token.VAR {
						kind = "var"
					}
					add(&decl{name: s.Names[0].Name, kind: kind, pos: pos, end: s.End()})
					if kind == "var" || (exportedRoot && s.Names[0].IsExported()) {
						a.roots[pos] = true
					}
				}
			}
		}
	}
	sort.Slice(a.spans[path], func(i, j int) bool { return a.spans[path][i].pos < a.spans[path][j].pos })
	for _, d := range a.spans[path] {
		if allowed(d) {
			a.roots[d.pos] = true
		}
	}
}

// allowed reports whether an allowlist entry covers d: its own name,
// its receiver type, or the type its New<Type> constructor builds.
func allowed(d *decl) bool {
	for _, name := range []string{d.name, d.recv, strings.TrimPrefix(d.name, "New")} {
		if name != "" && allowlist[d.pkg+"."+name] != "" {
			return true
		}
	}
	return false
}

// declAt returns the module declaration whose span holds pos, or nil
// (a test file, the standard library, an import).
func (a *analysis) declAt(pos token.Pos) *decl {
	if !pos.IsValid() {
		return nil
	}
	spans := a.spans[a.fset.File(pos).Name()]
	i := sort.Search(len(spans), func(i int) bool { return spans[i].end > pos })
	if i < len(spans) && spans[i].pos <= pos {
		return spans[i]
	}
	return nil
}

// walkStd collects the exported interfaces of a standard package and of
// everything it imports.
func (a *analysis) walkStd(p *types.Package) {
	if a.stdSeen[p] || p.Path() == a.modPath || strings.HasPrefix(p.Path(), a.modPath+"/") {
		return
	}
	a.stdSeen[p] = true
	for _, imp := range p.Imports() {
		a.walkStd(imp)
	}
}

func (a *analysis) collectStdInterfaces() {
	a.stdIfaces = append(a.stdIfaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for p := range a.stdSeen {
		for _, n := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(n).(*types.TypeName); ok && tn.Exported() {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					a.stdIfaces = append(a.stdIfaces, it)
				}
			}
		}
	}
}

// reach returns every declaration a root leads to.
func (a *analysis) reach() map[token.Pos]bool {
	// A reached type reaches its methods that an interface may call.
	typeDecls := map[string]*decl{}
	for _, d := range a.decls {
		if d.kind == "type" {
			typeDecls[d.pkg+"."+d.name] = d
		}
	}
	methods := map[token.Pos][]*decl{}
	for _, d := range a.decls {
		if d.kind != "method" {
			continue
		}
		if t := typeDecls[d.pkg+"."+d.recv]; t != nil && (a.ifaceNames[strings.TrimPrefix(d.name, d.recv+".")] || a.stdMethod(t, d)) {
			methods[t.pos] = append(methods[t.pos], d)
		}
	}
	seen := map[token.Pos]bool{}
	var queue []token.Pos
	visit := func(p token.Pos) {
		if !seen[p] {
			seen[p] = true
			queue = append(queue, p)
		}
	}
	for p := range a.roots {
		visit(p)
	}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, m := range methods[p] {
			visit(m.pos)
		}
		for q := range a.edges[p] {
			visit(q)
		}
	}
	return seen
}

// stdMethod reports whether method d of type t belongs to a standard
// interface that t or *t implements.
func (a *analysis) stdMethod(t, d *decl) bool {
	name, tn := strings.TrimPrefix(d.name, d.recv+"."), a.named[t.pos]
	if tn == nil {
		return false
	}
	for _, it := range a.stdIfaces {
		if hasMethod(it, name) && (types.Implements(tn.Type(), it) || types.Implements(types.NewPointer(tn.Type()), it)) {
			return true
		}
	}
	return false
}

func hasMethod(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}

func recvName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return recvName(t.X)
	case *ast.IndexExpr:
		return recvName(t.X)
	case *ast.IndexListExpr:
		return recvName(t.X)
	case *ast.Ident:
		return t.Name
	}
	return "?"
}

// pkgPath strips a test variant's " [P.test]" suffix from a `go list`
// ImportPath.
func pkgPath(id string) string {
	p, _, _ := strings.Cut(id, " ")
	return p
}

func isTest(path string) bool { return strings.HasSuffix(path, "_test.go") }

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func run(dir, name string, args ...string) string {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	check(err)
	return string(out)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(2)
	}
}

// docIndex holds what a doc span may resolve to: every variant of every
// module package, the standard packages the module imports, and the
// bare names of both (a standard package contributes its package-level
// names only).
type docIndex struct {
	fset *token.FileSet
	// pkgs holds each package under its name (an external test package
	// under its package's) and the last element of its import path.
	pkgs map[string][]*types.Package
	bare map[string]bool
	// seen maps every package added to whether it is a standard one.
	seen map[*types.Package]bool
}

func (x *docIndex) add(p *types.Package, std bool) bool {
	if _, ok := x.seen[p]; ok {
		return false
	}
	x.seen[p] = std
	for _, q := range []string{strings.TrimSuffix(p.Name(), "_test"), filepath.Base(p.Path())} {
		x.pkgs[q] = append(x.pkgs[q], p)
	}
	return true
}

func (x *docIndex) addModule(p *types.Package) {
	if !x.add(p, false) {
		return
	}
	for _, n := range p.Scope().Names() {
		if obj := p.Scope().Lookup(n); x.declared(obj) {
			x.addObject(obj)
		}
	}
}

func (x *docIndex) addStd(p *types.Package) {
	if !x.add(p, true) {
		return
	}
	for _, n := range p.Scope().Names() {
		if token.IsExported(n) {
			x.bare[n] = true
		}
	}
}

// addObject records a module package-level name and, for a type, its
// methods and fields.
func (x *docIndex) addObject(obj types.Object) {
	x.bare[obj.Name()] = true
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return
	}
	if n, ok := tn.Type().(*types.Named); ok {
		for i := 0; i < n.NumMethods(); i++ {
			x.bare[n.Method(i).Name()] = true
		}
	}
	switch u := tn.Type().Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			x.bare[u.Field(i).Name()] = true
		}
	case *types.Interface:
		for i := 0; i < u.NumMethods(); i++ {
			x.bare[u.Method(i).Name()] = true
		}
	}
}

var testFuncName = regexp.MustCompile(`^(Test|Fuzz|Benchmark|Example)`)

// declared reports whether a module object counts as a declaration: a
// _test.go file declares only its Test, Fuzz, Benchmark and Example
// functions.
func (x *docIndex) declared(obj types.Object) bool {
	if obj == nil || !obj.Pos().IsValid() {
		return false
	}
	if !isTest(x.fset.File(obj.Pos()).Name()) {
		return true
	}
	_, isFunc := obj.(*types.Func)
	return isFunc && testFuncName.MatchString(obj.Name())
}

// member reports whether a type named name in p has a method or field
// called m.
func (x *docIndex) member(p *types.Package, name, m string) bool {
	tn, ok := p.Scope().Lookup(name).(*types.TypeName)
	if !ok || !x.visible(tn) {
		return false
	}
	obj, _, _ := types.LookupFieldOrMethod(tn.Type(), true, p, m)
	return obj != nil && x.visible(obj)
}

// visible reports whether obj may be named: a declaration of the module
// or an exported name of a standard package.
func (x *docIndex) visible(obj types.Object) bool {
	if obj.Pkg() != nil && x.seen[obj.Pkg()] {
		return obj.Exported()
	}
	return x.declared(obj)
}

// resolves reports whether a span's dotted parts name a declaration.
func (x *docIndex) resolves(parts []string) bool {
	switch len(parts) {
	case 1:
		return x.bare[parts[0]]
	case 2:
		q, n := parts[0], parts[1]
		for _, p := range x.pkgs[q] {
			if obj := p.Scope().Lookup(n); obj != nil && x.visible(obj) {
				return true
			}
		}
		for _, list := range x.pkgs {
			for _, p := range list {
				if x.member(p, q, n) {
					return true
				}
			}
		}
	case 3:
		for _, p := range x.pkgs[parts[0]] {
			if x.member(p, parts[1], parts[2]) {
				return true
			}
		}
	}
	return false
}

var goSpan = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*(\(\))?$`)

type staleSpan struct {
	line int
	span string
}

// stale returns the spans of one document that resolve to nothing, in
// order; a missing document has none.
func (x *docIndex) stale(path string) []staleSpan {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	check(err)
	var out []staleSpan
	fenced, history := false, false
	for i, line := range strings.Split(string(data), "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			fenced = !fenced
			continue
		case strings.Contains(line, historyMarker):
			history = true
		case strings.TrimSpace(line) == "":
			history = false
		}
		if fenced || history {
			continue
		}
		fields := strings.Split(line, "`")
		for j := 1; j < len(fields)-1; j += 2 {
			span := fields[j]
			if !goSpan.MatchString(span) {
				continue
			}
			parts := strings.Split(strings.TrimSuffix(span, "()"), ".")
			last := parts[len(parts)-1]
			if !token.IsExported(last) || strings.ToUpper(last) == last {
				continue
			}
			if !x.resolves(parts) {
				out = append(out, staleSpan{i + 1, span})
			}
		}
	}
	return out
}
