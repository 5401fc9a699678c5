package lint

import (
	"go/ast"
	"go/types"
)

// Hotalloc guards the allocation discipline of the crawl hot path: the
// packages executed on every simulated visit, whose allocation budget
// is CI-gated by the allocs/visit ceiling in scripts/bench_gate.sh.
// PR 2–3 removed fmt formatting (reflection + boxing on every call) and
// per-call closures from these packages; this analyzer keeps them out.
//
// Two rules:
//
//   - no fmt formatting calls (Sprintf/Sprint/Fprintf/Errorf/Appendf):
//     protocol IDs, prices and URLs are built with strconv fast paths
//     that are byte-pinned to the old fmt output. Genuinely cold spots
//     (error construction on failure paths, String methods for logs)
//     carry //hbvet:allow hotalloc annotations saying so.
//   - no capturing closures inside loops: a func literal that captures
//     variables allocates on every iteration. Hoist it, use the
//     closure-free scheduler capabilities (clock.AtCall/AfterCall), or
//     annotate the one-time setup loops.
//   - no encoding/json Marshal/Unmarshal: reflection-based encoding of
//     the fixed OpenRTB shapes costs dozens of allocations per bid
//     exchange. The rtb codec, field tables walked by the JSON kernel
//     in internal/rtb/jsonkit (which the JSONL records share), is
//     byte-identical to encoding/json for these shapes; the sanctioned
//     fallbacks (the codec's own escape hatches for foreign bodies)
//     carry //hbvet:allow hotalloc annotations.
var Hotalloc = &Analyzer{
	Name: "hotalloc",
	Doc: "forbid fmt formatting calls, per-iteration capturing closures, " +
		"and encoding/json marshalling in the hot-path packages covered " +
		"by the allocs/visit bench gate",
	Applies: func(pkgPath string) bool { return hotPathPackages[pkgPath] },
	Run:     runHotalloc,
}

// hotPathPackages are the packages on the per-visit execution path,
// matching the surface the allocs/visit ceiling measures.
var hotPathPackages = map[string]bool{
	"headerbid/internal/pagert":      true,
	"headerbid/internal/webreq":      true,
	"headerbid/internal/hb":          true,
	"headerbid/internal/urlkit":      true,
	"headerbid/internal/clock":       true,
	"headerbid/internal/rtb":         true,
	"headerbid/internal/rtb/jsonkit": true,
	"headerbid/internal/prebid":      true,
	"headerbid/internal/pubfood":     true,
	"headerbid/internal/sitegen":     true,
}

// fmtFormatFuncs are the reflection-based formatting entry points
// banned on the hot path.
var fmtFormatFuncs = map[string]bool{
	"Sprintf": true,
	"Sprint":  true,
	"Fprintf": true,
	"Errorf":  true,
	"Appendf": true,
}

// jsonCodecFuncs are the reflection-based encoding/json entry points
// banned on the hot path (the rtb codec replaces them for the OpenRTB
// shapes).
var jsonCodecFuncs = map[string]bool{
	"Marshal":       true,
	"MarshalIndent": true,
	"Unmarshal":     true,
}

func runHotalloc(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				switch pkgFuncUse(pass.Info, sel.Sel) {
				case "fmt":
					if fmtFormatFuncs[sel.Sel.Name] {
						pass.Reportf(sel.Pos(),
							"fmt.%s on the hot path allocates via reflection: use strconv builders (or annotate a genuinely cold path)",
							sel.Sel.Name)
					}
				case "encoding/json":
					if jsonCodecFuncs[sel.Sel.Name] {
						pass.Reportf(sel.Pos(),
							"json.%s on the hot path reflects over the value: use the rtb codec (or annotate a sanctioned fallback)",
							sel.Sel.Name)
					}
				}
			}
			return true
		})
	}
	pass.funcDecls(func(fd *ast.FuncDecl) {
		checkLoopClosures(pass, fd)
	})
	return nil
}

// checkLoopClosures flags capturing func literals inside loop bodies:
// each iteration allocates a fresh closure.
func checkLoopClosures(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch loop := n.(type) {
		case *ast.ForStmt:
			body = loop.Body
		case *ast.RangeStmt:
			body = loop.Body
		default:
			return true
		}
		flagClosuresIn(pass, body)
		return true
	})
}

// flagClosuresIn reports the outermost capturing func literals in body.
// Non-capturing literals cost nothing per iteration (the compiler
// materializes them once) and are descended into, since a capturing
// literal nested inside still allocates when the outer one runs.
func flagClosuresIn(pass *Pass, body *ast.BlockStmt) {
	for _, stmt := range body.List {
		ast.Inspect(stmt, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				// Inner loops get their own pass from checkLoopClosures.
				return false
			case *ast.FuncLit:
				if capturesLocals(pass.Info, n) {
					pass.Reportf(n.Pos(),
						"capturing closure inside a loop allocates per iteration: hoist it or pass state explicitly")
					return false
				}
				return true
			}
			return true
		})
	}
}

// capturesLocals reports whether lit references any function-local
// variable declared outside the literal itself (free variables force a
// heap-allocated closure; package-level references do not).
func capturesLocals(info *types.Info, lit *ast.FuncLit) bool {
	captures := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captures {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.Pkg() == nil {
			return true
		}
		// Package-level variables are not captured; neither are
		// variables declared inside the literal (params, locals).
		if v.Parent() == v.Pkg().Scope() {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true
		}
		// Struct fields reached through a captured receiver show up as
		// field selections, not scope-level vars; skip field objects.
		if v.IsField() {
			return true
		}
		captures = true
		return false
	})
	return captures
}
