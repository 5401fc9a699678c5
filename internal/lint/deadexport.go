package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strconv"
	"strings"
)

// Deadexport keeps the test-only surface of the module from growing
// back. It reports every exported package-level func, type, var and
// const, and every exported method and struct field, declared in a
// non-main package of the module (the root facade and everything under
// internal/) that no non-test file of the module uses outside the
// declaration itself. cmd/ and examples/ count as users, so such a name
// is one that only tests reach: it keeps code alive (and often work on
// every visit) that no crawl, report or command runs.
//
// A use is an identifier that go/types resolves to the name (which
// covers selections and composite-literal keys), with two exceptions: a
// use inside the name's own declaration (recursion, a self-referencing
// type) and a mention of a type inside the methods declared on it. A
// method is also used when a type that has it satisfies an interface
// declaring it, wherever the interface is declared (the module or the
// standard library: fmt.Stringer, json.Marshaler, http.Handler...). A
// field whose json tag is not "-" is used: it is part of a file or wire
// format. (Methods of generic types count only direct uses.)
//
// The verdict is module-wide whatever packages are under analysis
// (Pass.Module), so `hbvet -rules deadexport ./internal/stats` reports
// what ./... reports for stats. Test files and other modules are not
// loaded, so a name kept for them carries
//
//	//hbvet:allow deadexport <reason>
//
// naming its user. DESIGN.md §5.1 states the cases that qualify: a
// check tests compare against, a seam that tests in more than one
// package drive production code through, a paper value only a root
// benchmark reports, a facade name a runnable Example documents, and a
// facade name the benchmark module (bench/) builds against.
var Deadexport = &Analyzer{
	Name: "deadexport",
	Doc: "report exported names of non-main packages that no non-test " +
		"code of the module uses",
	Run: runDeadexport,
}

// An exportedDecl is one exported name declared in a non-main package.
type exportedDecl struct {
	pkg  string // import path of the declaring package
	key  string // "pkg.Name", or "pkg.Type.Name" for a method or field
	kind string // func, method, type, const, var, field
	name string // as reported: "Name" or "Type.Name"
	pos  token.Pos
	// lo and hi bound the declaration; uses inside it do not count.
	lo, hi token.Pos
	// methods bound the methods declared on a type, where mentions of
	// the type do not count either.
	methods [][2]token.Pos
	used    bool
}

func runDeadexport(pass *Pass) error {
	m := pass.Module
	if m == nil {
		return nil
	}
	if m.dead == nil {
		m.dead = deadDecls(m)
	}
	for _, d := range m.dead[pass.PkgPath] {
		pass.Reportf(d.pos, "exported %s %s has no use in the module's non-test code", d.kind, d.name)
	}
	return nil
}

// deadDecls computes the verdict for every non-main package of m.
func deadDecls(m *Module) map[string][]exportedDecl {
	decls := make(map[string]*exportedDecl)
	var order []*exportedDecl
	for _, pkg := range m.Packages {
		if pkg.Types.Name() != "main" {
			for _, d := range declaredExports(pkg) {
				decls[d.key] = d
				order = append(order, d)
			}
		}
	}

	keys := newObjKeys(m.Path)
	for _, pkg := range m.Packages {
		for id, obj := range pkg.Info.Uses {
			d := decls[keys.of(obj)]
			if d == nil || d.used || d.excludes(id.Pos()) {
				continue
			}
			d.used = true
		}
	}
	markInterfaceMethods(m, keys, decls)

	dead := make(map[string][]exportedDecl)
	for _, d := range order {
		if !d.used {
			dead[d.pkg] = append(dead[d.pkg], *d)
		}
	}
	return dead
}

// excludes reports whether a use at pos does not count for d.
func (d *exportedDecl) excludes(pos token.Pos) bool {
	if d.lo <= pos && pos < d.hi {
		return true
	}
	for _, span := range d.methods {
		if span[0] <= pos && pos < span[1] {
			return true
		}
	}
	return false
}

// declaredExports lists the exported names one package declares.
func declaredExports(pkg *Package) []*exportedDecl {
	var out []*exportedDecl
	byType := make(map[string]*exportedDecl)
	add := func(key, kind, name string, id *ast.Ident, node ast.Node) *exportedDecl {
		d := &exportedDecl{pkg: pkg.Path, key: key, kind: kind, name: name, pos: id.Pos(), lo: node.Pos(), hi: node.End()}
		out = append(out, d)
		return d
	}
	methods := make(map[string][][2]token.Pos) // type name -> its methods' spans
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					if decl.Name.IsExported() {
						add(pkg.Path+"."+decl.Name.Name, "func", decl.Name.Name, decl.Name, decl)
					}
					continue
				}
				typ := recvTypeName(decl.Recv.List[0].Type)
				methods[typ] = append(methods[typ], [2]token.Pos{decl.Pos(), decl.End()})
				if decl.Name.IsExported() {
					name := typ + "." + decl.Name.Name
					add(pkg.Path+"."+name, "method", name, decl.Name, decl)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						if spec.Name.IsExported() {
							byType[spec.Name.Name] = add(pkg.Path+"."+spec.Name.Name, "type", spec.Name.Name, spec.Name, spec)
						}
						st, ok := spec.Type.(*ast.StructType)
						if !ok {
							continue
						}
						for _, field := range st.Fields.List {
							if wireField(field) {
								continue
							}
							for _, id := range field.Names {
								if id.IsExported() {
									name := spec.Name.Name + "." + id.Name
									add(pkg.Path+"."+name, "field", name, id, field)
								}
							}
						}
					case *ast.ValueSpec:
						kind := "var"
						if decl.Tok == token.CONST {
							kind = "const"
						}
						for _, id := range spec.Names {
							if id.IsExported() {
								add(pkg.Path+"."+id.Name, kind, id.Name, id, spec)
							}
						}
					}
				}
			}
		}
	}
	for typ, d := range byType {
		d.methods = methods[typ]
	}
	return out
}

// recvTypeName returns the name of a method receiver's base type.
func recvTypeName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// wireField reports whether a field is part of a JSON format: it has a
// json tag other than "-".
func wireField(field *ast.Field) bool {
	if field.Tag == nil {
		return false
	}
	tag, err := strconv.Unquote(field.Tag.Value)
	if err != nil {
		return false
	}
	name, ok := reflect.StructTag(tag).Lookup("json")
	return ok && name != "-"
}

// objKeys maps a used object to the key of its declaration. The module's
// packages are checked from source one at a time and see each other
// through export data, so one name is several objects; the key (import
// path, type, name) is what they share.
type objKeys struct {
	module string
	// owner maps a struct field to the named type declaring it, filled
	// per package on first need.
	owner   map[*types.Var]string
	indexed map[*types.Package]bool
}

func newObjKeys(module string) *objKeys {
	return &objKeys{
		module:  module,
		owner:   make(map[*types.Var]string),
		indexed: make(map[*types.Package]bool),
	}
}

// of returns obj's declaration key, or "" for an object outside the
// module or one deadexport never reports.
func (k *objKeys) of(obj types.Object) string {
	pkg := obj.Pkg()
	if pkg == nil || !inModule(pkg.Path(), k.module) {
		return ""
	}
	switch obj := obj.(type) {
	case *types.Func:
		fn := obj.Origin()
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return pkgLevelKey(fn)
		}
		if named := namedOf(recv.Type()); named != nil {
			return pkg.Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
	case *types.Var:
		if !obj.IsField() {
			return pkgLevelKey(obj)
		}
		field := obj.Origin()
		if !k.indexed[pkg] {
			k.index(pkg)
		}
		if typ := k.owner[field]; typ != "" {
			return pkg.Path() + "." + typ + "." + field.Name()
		}
	case *types.TypeName, *types.Const:
		return pkgLevelKey(obj)
	}
	return ""
}

// index records the owner of every field of the named struct types
// declared in pkg.
func (k *objKeys) index(pkg *types.Package) {
	k.indexed[pkg] = true
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			k.owner[st.Field(i)] = name
		}
	}
}

// inModule reports whether the import path belongs to module.
func inModule(path, module string) bool {
	return path == module || strings.HasPrefix(path, module+"/")
}

// pkgLevelKey returns "pkg.Name" for a package-level object, "" for a
// local one.
func pkgLevelKey(obj types.Object) string {
	if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// namedOf returns the named type t or *t is, or nil.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// markInterfaceMethods marks used every method through which a type of
// a non-main module package satisfies an interface declaring it. Each
// module package is one view: its own types and interfaces from source,
// its imports' from export data, so every check compares types of a
// single view.
func markInterfaceMethods(m *Module, keys *objKeys, decls map[string]*exportedDecl) {
	ifacesOf := make(map[*types.Package][]*types.Interface)
	for _, pkg := range m.Packages {
		visible := importClosure(pkg.Types)
		ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
		for _, p := range visible {
			list, ok := ifacesOf[p]
			if !ok {
				list = scopeInterfaces(p)
				ifacesOf[p] = list
			}
			ifaces = append(ifaces, list...)
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.InterfaceType); ok {
					if it, ok := typeOf(pkg.Info, lit).(*types.Interface); ok && it.NumMethods() > 0 {
						ifaces = append(ifaces, it)
					}
				}
				return true
			})
		}
		for _, p := range visible {
			if p.Name() == "main" || !inModule(p.Path(), m.Path) {
				continue
			}
			scope := p.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || tn.IsAlias() {
					continue
				}
				named, ok := tn.Type().(*types.Named)
				if !ok || named.TypeParams().Len() > 0 || types.IsInterface(named) {
					continue
				}
				markSatisfied(named, ifaces, keys, decls)
			}
		}
	}
}

// markSatisfied marks the methods of named (or *named) that satisfy
// any of ifaces, skipping the work when none of its exported methods
// still waits for a use.
func markSatisfied(named *types.Named, ifaces []*types.Interface, keys *objKeys, decls map[string]*exportedDecl) {
	ptr := types.NewPointer(named)
	pending := make(map[string]bool)
	mset := types.NewMethodSet(ptr)
	for i := 0; i < mset.Len(); i++ {
		fn := mset.At(i).Obj()
		if d := decls[keys.of(fn)]; d != nil && !d.used {
			pending[fn.Name()] = true
		}
	}
	if len(pending) == 0 {
		return
	}
	for _, it := range ifaces {
		declares := false
		for i := 0; i < it.NumMethods(); i++ {
			if pending[it.Method(i).Name()] {
				declares = true
				break
			}
		}
		if !declares || !types.Implements(ptr, it) {
			continue
		}
		for i := 0; i < it.NumMethods(); i++ {
			im := it.Method(i)
			obj, _, _ := types.LookupFieldOrMethod(ptr, true, im.Pkg(), im.Name())
			if obj == nil {
				continue
			}
			if d := decls[keys.of(obj)]; d != nil {
				d.used = true
			}
		}
	}
}

// importClosure returns pkg and every package it imports, directly or
// not.
func importClosure(pkg *types.Package) []*types.Package {
	seen := map[*types.Package]bool{pkg: true}
	out := []*types.Package{pkg}
	for i := 0; i < len(out); i++ {
		for _, imp := range out[i].Imports() {
			if !seen[imp] {
				seen[imp] = true
				out = append(out, imp)
			}
		}
	}
	return out
}

// scopeInterfaces returns the non-empty interfaces declared at pkg's
// package level.
func scopeInterfaces(pkg *types.Package) []*types.Interface {
	var out []*types.Interface
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			out = append(out, it)
		}
	}
	return out
}
