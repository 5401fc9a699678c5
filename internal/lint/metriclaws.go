package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Metriclaws enforces the structural half of the analysis.Metric
// contract — the merge laws that make per-worker sharded accumulation
// invisible in the output. The metric-law tests prove the algebra
// (commutativity, associativity, sharded merges equal to one in-order
// fold) at run time; this analyzer catches the implementation shapes
// that break it before a test ever runs:
//
//   - Add and Merge declared with a value receiver mutate a copy: every
//     record folded into a shard would be silently dropped.
//   - NewShard returning the receiver aliases shard state across
//     goroutines: workers would race on one accumulator.
//   - Snapshot returning the receiver, or a receiver field of map or
//     slice type, hands internal accumulation state to the caller by
//     reference: a later Add/Merge mutates a result already reported.
//
// The checks are declaration-local: promoted methods are checked where
// they are declared, and Snapshot bodies that build results through
// helper calls are trusted (the metric-law tests cover the rest).
var Metriclaws = &Analyzer{
	Name: "metriclaws",
	Doc: "Metric implementations must use pointer receivers for " +
		"Add/Merge, return a fresh accumulator from NewShard, and not " +
		"leak internal maps/slices from Snapshot",
	Run: runMetriclaws,
}

const analysisPkgPath = "headerbid/internal/analysis"

// metricInterface locates the analysis.Metric interface as seen by the
// package under analysis: the local definition inside internal/analysis
// itself, or the imported one everywhere else. nil means the package
// cannot define metrics.
func metricInterface(pkg *types.Package) *types.Interface {
	scope := pkg.Scope()
	if pkg.Path() != analysisPkgPath {
		scope = nil
		for _, imp := range pkg.Imports() {
			if imp.Path() == analysisPkgPath {
				scope = imp.Scope()
				break
			}
		}
		if scope == nil {
			return nil
		}
	}
	obj, ok := scope.Lookup("Metric").(*types.TypeName)
	if !ok {
		return nil
	}
	iface, ok := obj.Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	return iface
}

func runMetriclaws(pass *Pass) error {
	iface := metricInterface(pass.Pkg)
	if iface == nil {
		return nil
	}

	// Named types in this package whose pointer (or value) type
	// implements Metric.
	implementers := make(map[string]bool)
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			implementers[name] = true
		}
	}
	if len(implementers) == 0 {
		return nil
	}

	pass.funcDecls(func(fd *ast.FuncDecl) {
		recvName, ptr := receiverType(fd)
		if recvName == "" || !implementers[recvName] {
			return
		}
		switch fd.Name.Name {
		case "Add", "Merge":
			if !ptr {
				pass.Reportf(fd.Name.Pos(),
					"(%s).%s has a value receiver: accumulation mutates a copy and every folded record is lost; use a pointer receiver",
					recvName, fd.Name.Name)
			}
		case "NewShard":
			checkNewShard(pass, fd, recvName)
		case "Snapshot":
			checkSnapshot(pass, fd, recvName)
		}
	})
	return nil
}

// receiverType returns the base type name of a method's receiver and
// whether the receiver is a pointer.
func receiverType(fd *ast.FuncDecl) (name string, ptr bool) {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return "", false
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		ptr = true
		t = star.X
	}
	// Generic receivers (T[P]) index the base name.
	if idx, ok := t.(*ast.IndexExpr); ok {
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name, ptr
	}
	return "", ptr
}

// returnStmts walks the return statements belonging to fd itself
// (returns inside nested function literals are someone else's).
func returnStmts(fd *ast.FuncDecl, fn func(*ast.ReturnStmt)) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			fn(n)
		}
		return true
	})
}

// checkNewShard flags NewShard bodies that return the receiver instead
// of a fresh accumulator.
func checkNewShard(pass *Pass, fd *ast.FuncDecl, recvName string) {
	recv := receiverIdent(fd)
	if recv == nil {
		return
	}
	recvObj := pass.Info.Defs[recv]
	returnStmts(fd, func(ret *ast.ReturnStmt) {
		for _, res := range ret.Results {
			expr := ast.Unparen(res)
			// Unwrap a unary & (value-receiver metrics returning
			// &themselves still alias).
			if u, ok := expr.(*ast.UnaryExpr); ok && u.Op == token.AND {
				expr = ast.Unparen(u.X)
			}
			if id, ok := expr.(*ast.Ident); ok && recvObj != nil && pass.Info.Uses[id] == recvObj {
				pass.Reportf(res.Pos(),
					"(%s).NewShard returns the receiver: shards must be fresh accumulators, or workers race on shared state",
					recvName)
			}
		}
	})
}

// checkSnapshot flags Snapshot bodies that return the receiver or a
// receiver field of map/slice type (directly or as a composite-literal
// element) — internal accumulation state escaping by reference.
func checkSnapshot(pass *Pass, fd *ast.FuncDecl, recvName string) {
	recv := receiverIdent(fd)
	if recv == nil {
		return
	}
	recvObj := pass.Info.Defs[recv]
	if recvObj == nil {
		return
	}
	flag := func(expr ast.Expr) {
		expr = ast.Unparen(expr)
		if id, ok := expr.(*ast.Ident); ok && pass.Info.Uses[id] == recvObj {
			pass.Reportf(expr.Pos(),
				"(%s).Snapshot returns the receiver: the caller holds live accumulator state; return a copied result",
				recvName)
			return
		}
		sel, ok := expr.(*ast.SelectorExpr)
		if !ok {
			return
		}
		base, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok || pass.Info.Uses[base] != recvObj {
			return
		}
		if t := typeOf(pass.Info, sel); isMapType(t) || isSliceType(t) {
			pass.Reportf(expr.Pos(),
				"(%s).Snapshot returns internal field %s by reference: later Add/Merge calls mutate the reported result; clone it",
				recvName, sel.Sel.Name)
		}
	}
	returnStmts(fd, func(ret *ast.ReturnStmt) {
		for _, res := range ret.Results {
			res = ast.Unparen(res)
			if lit, ok := res.(*ast.CompositeLit); ok {
				for _, elt := range lit.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						flag(kv.Value)
					} else {
						flag(elt)
					}
				}
				continue
			}
			flag(res)
		}
	})
}

// isSliceType reports whether t's core type is a slice.
func isSliceType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Slice)
	return ok
}
