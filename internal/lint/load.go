package lint

import (
	"bytes"
	"encoding/json"
	"errors"
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
	"strconv"
)

// This file is hbvet's package loader: a minimal, offline equivalent of
// golang.org/x/tools/go/packages built on `go list -export`. The go
// command compiles (or reuses from the build cache) every dependency
// and reports the path of each package's export data; the target
// packages themselves are parsed and typechecked from source with the
// standard library's gc importer reading that export data. No network,
// no third-party modules, full types.Info.

// A Package is one typechecked target package ready for analysis.
type Package struct {
	// Path is the import path.
	Path string
	// Dir is the package directory on disk.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// Module is the main module of the run that loaded the package (nil
	// for a package loadDir checks on its own).
	Module *Module
}

// A Module is the main module as one Load saw it: its path and every
// non-test package in it, typechecked in one file set whatever patterns
// chose the packages under analysis. A rule that judges a declaration
// by its uses across the module (deadexport) reads it, so it reports
// the same for one package as for ./... .
type Module struct {
	Path     string
	Packages []*Package // sorted by import path

	// dead memoizes deadexport's module-wide verdict: the unused
	// exported declarations of each non-main package, by import path.
	dead map[string][]exportedDecl
}

// listedPackage is the subset of `go list -json` output hbvet consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Module     *struct{ Main bool }
	Error      *struct{ Err string }
}

// goList runs `go list -json` over patterns in dir and returns the
// decoded packages. With deps it lists their dependencies too (first,
// roots flagged with DepOnly=false) and builds their export data.
func goList(dir string, deps bool, patterns []string) ([]*listedPackage, error) {
	args := []string{"list", "-json=ImportPath,Dir,Export,GoFiles,Standard,DepOnly,Module,Error"}
	if deps {
		args = append(args, "-export", "-deps")
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %v: decoding output: %v", patterns, err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// exportLookup builds the importer lookup function over the export
// files `go list` reported.
func exportLookup(exports map[string]string) func(path string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	}
}

func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// Load typechecks the packages matching patterns (resolved relative to
// dir, e.g. "./..."), returning them sorted by import path. It also
// typechecks the rest of the main module, which each returned package's
// Module lists, so a module-wide rule sees every use whatever the
// patterns. Test files are not loaded: hbvet checks the shipped
// sources; tests measure wall time and seed ad-hoc RNGs legitimately,
// and a name only tests use is what deadexport reports.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	modPath, err := mainModulePath(dir)
	if err != nil {
		return nil, err
	}
	named, err := goList(dir, false, patterns)
	if err != nil {
		return nil, err
	}
	listed, err := goList(dir, true, append(patterns[:len(patterns):len(patterns)], modPath+"/..."))
	if err != nil {
		return nil, err
	}
	requested := make(map[string]bool, len(named))
	for _, p := range named {
		requested[p.ImportPath] = true
	}
	exports := make(map[string]string, len(listed))
	var roots []*listedPackage
	for _, p := range listed {
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			roots = append(roots, p)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].ImportPath < roots[j].ImportPath })

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", exportLookup(exports))
	mod := &Module{Path: modPath}
	var targets []*Package
	for _, r := range roots {
		files := make([]string, len(r.GoFiles))
		for i, f := range r.GoFiles {
			files[i] = filepath.Join(r.Dir, f)
		}
		pkg, err := checkFiles(fset, imp, r.ImportPath, r.Dir, files)
		if err != nil {
			return nil, err
		}
		pkg.Module = mod
		if r.Module != nil && r.Module.Main {
			mod.Packages = append(mod.Packages, pkg)
		}
		if requested[r.ImportPath] {
			targets = append(targets, pkg)
		}
	}
	return targets, nil
}

// mainModulePath returns the path of the module dir belongs to.
func mainModulePath(dir string) (string, error) {
	cmd := exec.Command("go", "list", "-m")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go list -m: %v\n%s", err, stderr.String())
	}
	return string(bytes.TrimSpace(out)), nil
}

// loadDir typechecks a single directory of Go files as the package at
// the given (possibly synthetic) import path, resolving its imports via
// `go list -export` run from moduleDir. This is the testdata loader:
// testdata packages live outside the module's package graph but still
// get full type information.
func loadDir(moduleDir, pkgDir, pkgPath string) (*Package, error) {
	entries, err := os.ReadDir(pkgDir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
			files = append(files, filepath.Join(pkgDir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", pkgDir)
	}
	sort.Strings(files)

	// Parse first to learn the import set, then ask the go command for
	// export data of exactly those packages (and their deps).
	fset := token.NewFileSet()
	var asts []*ast.File
	imports := make(map[string]bool)
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		asts = append(asts, f)
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return nil, err
			}
			imports[path] = true
		}
	}
	patterns := make([]string, 0, len(imports))
	for path := range imports {
		patterns = append(patterns, path)
	}
	sort.Strings(patterns)

	exports := make(map[string]string)
	if len(patterns) > 0 {
		listed, err := goList(moduleDir, true, patterns)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Error != nil {
				return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
			}
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	imp := importer.ForCompiler(fset, "gc", exportLookup(exports))
	return checkPreparsed(fset, imp, pkgPath, pkgDir, asts)
}

// checkFiles parses and typechecks one package's source files.
func checkFiles(fset *token.FileSet, imp types.Importer, pkgPath, dir string, files []string) (*Package, error) {
	asts := make([]*ast.File, 0, len(files))
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		asts = append(asts, f)
	}
	return checkPreparsed(fset, imp, pkgPath, dir, asts)
}

func checkPreparsed(fset *token.FileSet, imp types.Importer, pkgPath, dir string, asts []*ast.File) (*Package, error) {
	info := newTypesInfo()
	var typeErrs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(pkgPath, fset, asts, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: typecheck %s: %w", pkgPath, errors.Join(typeErrs...))
	}
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", pkgPath, err)
	}
	return &Package{
		Path:  pkgPath,
		Dir:   dir,
		Fset:  fset,
		Files: asts,
		Types: tpkg,
		Info:  info,
	}, nil
}
