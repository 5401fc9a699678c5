// Package lint is hbvet's analyzer suite: repo-specific static checks
// that turn this codebase's load-bearing conventions — virtual clock
// only, seeded RNG only, no map-iteration-order leaks, fmt-free hot
// paths, lawful mergeable metrics, ctx-aware streaming, no exported
// surface in the facade or internal/ that only tests reach — into
// compile-time diagnostics instead of late golden-test failures.
//
// The framework mirrors the golang.org/x/tools/go/analysis shape
// (Analyzer, Pass, Reportf, testdata-driven tests) but is built on the
// standard library alone: the repository builds without a module proxy,
// so hbvet typechecks packages itself from `go list -export` output
// (see load.go) rather than importing x/tools. A Pass sees one package;
// Pass.Module adds every package of the main module, for the one
// cross-package rule (deadexport).
//
// # Suppression
//
// A diagnostic is suppressed by a directive comment
//
//	//hbvet:allow <rule> <reason>
//
// where <rule> is an analyzer name (detwall, hotalloc, metriclaws,
// sinkctx, recoverscope, obsguard, deadexport) and <reason> is free
// text explaining why the violation is intentional — the reason is
// mandatory; a bare allow is itself reported. The directive covers its
// own line (trailing comment) and the first line after its comment
// group (standalone comment above the offending statement). Livenet and
// cmd code legitimately touch the wall clock; the directive is how they
// say so in place, with the justification kept next to the code it
// excuses.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named rule set. It mirrors the x/tools analysis
// API: Run inspects a fully typechecked package through its Pass and
// reports diagnostics.
type Analyzer struct {
	// Name is the rule name used in diagnostics and //hbvet:allow
	// directives.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Applies reports whether the analyzer's rules apply to the package
	// with the given import path. A nil Applies means every package.
	// The testdata harness bypasses this filter and calls Run directly.
	Applies func(pkgPath string) bool
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(pass *Pass) error
}

// A Diagnostic is one finding, attributed to the analyzer that made it.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// A Pass carries one typechecked package through one analyzer run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// PkgPath is the import path under analysis (Pkg.Path(), kept
	// separately so synthetic testdata packages can carry real paths).
	PkgPath string
	// Module is the whole main module, for rules that read uses across
	// packages (nil when the package was checked on its own).
	Module *Module

	supp  *suppressions
	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos unless an //hbvet:allow directive
// for this analyzer covers the position's line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.supp != nil && p.supp.covers(p.Analyzer.Name, position.Filename, position.Line) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns every registered analyzer, in stable order. cmd/hbvet
// runs exactly this set; the driver's meta-test asserts no analyzer
// declared in this package is missing from it.
func All() []*Analyzer {
	return []*Analyzer{Detwall, Hotalloc, Metriclaws, Sinkctx, Recoverscope, Obsguard, Deadexport}
}

// knownRule reports whether name names a registered analyzer (used to
// reject misspelled //hbvet:allow directives).
func knownRule(name string) bool {
	for _, a := range All() {
		if a.Name == name {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Suppression directives
// ---------------------------------------------------------------------------

const allowPrefix = "//hbvet:allow"

// suppressions indexes //hbvet:allow directives by (rule, file, line).
type suppressions struct {
	// covered[rule][file] is the set of suppressed lines.
	covered map[string]map[string]map[int]bool
	// malformed collects directive-syntax diagnostics (missing rule,
	// missing reason, unknown rule) found while scanning.
	malformed []Diagnostic
}

// covers reports whether a directive for rule covers file:line.
func (s *suppressions) covers(rule, file string, line int) bool {
	return s.covered[rule][file][line]
}

// scanSuppressions walks every comment in files and indexes the allow
// directives. A directive covers the lines of its own comment group
// plus the first line after the group, so both trailing and standalone
// placements work:
//
//	x := time.Now() //hbvet:allow detwall wall-clock elapsed for logs
//
//	//hbvet:allow detwall wall-clock elapsed for logs
//	x := time.Now()
func scanSuppressions(fset *token.FileSet, files []*ast.File) *suppressions {
	s := &suppressions{covered: make(map[string]map[string]map[int]bool)}
	for _, f := range files {
		for _, group := range f.Comments {
			groupStart := fset.Position(group.Pos()).Line
			groupEnd := fset.Position(group.End()).Line
			for _, c := range group.List {
				text := c.Text
				if !strings.HasPrefix(text, allowPrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(text, allowPrefix))
				fields := strings.Fields(rest)
				switch {
				case len(fields) == 0:
					s.malformed = append(s.malformed, Diagnostic{
						Pos:      pos,
						Analyzer: "hbvet",
						Message:  "malformed directive: want //hbvet:allow <rule> <reason>",
					})
					continue
				case !knownRule(fields[0]):
					s.malformed = append(s.malformed, Diagnostic{
						Pos:      pos,
						Analyzer: "hbvet",
						Message:  fmt.Sprintf("directive names unknown rule %q", fields[0]),
					})
					continue
				case len(fields) < 2:
					s.malformed = append(s.malformed, Diagnostic{
						Pos:      pos,
						Analyzer: "hbvet",
						Message:  fmt.Sprintf("directive for %q has no reason: a justification is mandatory", fields[0]),
					})
					continue
				}
				rule := fields[0]
				byFile := s.covered[rule]
				if byFile == nil {
					byFile = make(map[string]map[int]bool)
					s.covered[rule] = byFile
				}
				lines := byFile[pos.Filename]
				if lines == nil {
					lines = make(map[int]bool)
					byFile[pos.Filename] = lines
				}
				for l := groupStart; l <= groupEnd+1; l++ {
					lines[l] = true
				}
			}
		}
	}
	return s
}

// ---------------------------------------------------------------------------
// Running
// ---------------------------------------------------------------------------

// RunAnalyzers applies each analyzer to each package (honoring Applies
// scopes and //hbvet:allow directives) and returns every diagnostic,
// sorted by position. Malformed directives in any package are reported
// once per package under the pseudo-rule "hbvet".
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		supp := scanSuppressions(pkg.Fset, pkg.Files)
		diags = append(diags, supp.malformed...)
		for _, a := range analyzers {
			if a.Applies != nil && !a.Applies(pkg.Path) {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				PkgPath:  pkg.Path,
				Module:   pkg.Module,
				supp:     supp,
				diags:    &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sortDiagnostics(diags)
	return diags, nil
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// ---------------------------------------------------------------------------
// Shared type-resolution helpers
// ---------------------------------------------------------------------------

// pkgFuncUse resolves an identifier use to a package-level function
// object, returning the defining package's import path ("" if the
// identifier is not a use of a package-level function).
func pkgFuncUse(info *types.Info, id *ast.Ident) string {
	obj, ok := info.Uses[id]
	if !ok {
		return ""
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	// Only package-level functions (methods have receivers).
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return ""
	}
	return fn.Pkg().Path()
}

// useFromPackage reports whether the identifier resolves to any object
// (func, var, const, type) exported by the package at path.
func useFromPackage(info *types.Info, id *ast.Ident, path string) bool {
	obj, ok := info.Uses[id]
	if !ok || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == path
}

// typeOf returns the static type of e, or nil.
func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// isMapType reports whether t's core type is a map.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// isChanType reports whether t's core type is a channel.
func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// objUsedIn reports whether any identifier inside node resolves to obj.
func objUsedIn(info *types.Info, node ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return true
	})
	return found
}

// receiverIdent returns the receiver's identifier of a method
// declaration, or nil for anonymous ("_") or missing receivers.
func receiverIdent(fd *ast.FuncDecl) *ast.Ident {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	id := fd.Recv.List[0].Names[0]
	if id.Name == "_" {
		return nil
	}
	return id
}

// funcDecls walks every function declaration (with a body) in the
// pass's files.
func (p *Pass) funcDecls(fn func(*ast.FuncDecl)) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}
