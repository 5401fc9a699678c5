package lint

import (
	"fmt"
	"go/token"
	"regexp"
	"strings"
	"testing"
)

// This file is the analyzer test harness, an analysistest equivalent on
// the stdlib loader: each analyzer gets a testdata package under
// testdata/src/<name>/ whose expected findings are declared in place
// with trailing comments of the form
//
//	expr // want <rule> "message substring"
//
// (several rule/substring pairs may follow one want). The harness
// typechecks the package with loadDir, runs the analyzer directly —
// bypassing its Applies scope filter, since testdata lives at a
// synthetic import path — and then requires an exact match: every want
// satisfied by a diagnostic on its line, every diagnostic claimed by a
// want. //hbvet:allow directives in testdata are honored exactly as in
// real code, so a suppressed site simply carries no want: if
// suppression regressed, the stray diagnostic fails the test. The
// cross-package rule, deadexport, gets a whole module instead
// (testdata/src/deadexport, with its own go.mod), loaded with Load as
// hbvet loads the repository.

func TestDetwallTestdata(t *testing.T)    { checkTestdata(t, Detwall, "detwall") }
func TestHotallocTestdata(t *testing.T)   { checkTestdata(t, Hotalloc, "hotalloc") }
func TestMetriclawsTestdata(t *testing.T) { checkTestdata(t, Metriclaws, "metriclaws") }
func TestSinkctxTestdata(t *testing.T)    { checkTestdata(t, Sinkctx, "sinkctx") }
func TestObsguardTestdata(t *testing.T)   { checkTestdata(t, Obsguard, "obsguard") }
func TestRecoverscopeTestdata(t *testing.T) {
	checkTestdata(t, Recoverscope, "recoverscope")
}

// TestDeadexportTestdata runs deadexport the way hbvet does, Load then
// RunAnalyzers, over testdata/src/deadexport: a module of its own with
// internal packages, a command, a non-internal package and a test file.
// Over ./... every want must match. Over one package, however spelled,
// the rule must report exactly that package's share of the ./...
// findings: the use index is module-wide whatever the patterns.
func TestDeadexportTestdata(t *testing.T) {
	const dir = "testdata/src/deadexport"
	pkgs, all := runLoaded(t, Deadexport, dir, "./...")
	var wants []*expectation
	for _, pkg := range pkgs[0].Module.Packages {
		wants = append(wants, parseWants(pkg.Fset, pkg)...)
	}
	if len(wants) == 0 {
		t.Fatalf("%s declares no // want expectations", dir)
	}
	matchWants(t, wants, all)

	var want []Diagnostic
	for _, d := range all {
		if strings.Contains(d.Pos.Filename, "/internal/stats/") {
			want = append(want, d)
		}
	}
	if len(want) == 0 || len(want) == len(all) {
		t.Fatalf("testdata must have findings inside and outside internal/stats (%d of %d)", len(want), len(all))
	}
	for _, pattern := range []string{"./internal/stats", "./internal/stats/", "deadexport/internal/stats"} {
		if _, one := runLoaded(t, Deadexport, dir, pattern); fmt.Sprint(one) != fmt.Sprint(want) {
			t.Fatalf("deadexport over %s:\n%v\nwant the ./... findings there:\n%v", pattern, one, want)
		}
	}
}

// runLoaded loads patterns in dir as hbvet does and runs one analyzer.
func runLoaded(t *testing.T, a *Analyzer, dir string, patterns ...string) ([]*Package, []Diagnostic) {
	t.Helper()
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		t.Fatalf("loading %s %v: %v", dir, patterns, err)
	}
	diags, err := RunAnalyzers(pkgs, []*Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs, diags
}

// expectation is one parsed `// want rule "substring"` pair.
type expectation struct {
	file    string
	line    int
	rule    string
	substr  string
	matched bool
}

// wantRe matches one `rule "substring"` pair after the want keyword.
var wantRe = regexp.MustCompile(`([a-z]+)\s+"([^"]*)"`)

const wantPrefix = "// want "

// parseWants collects the expectations declared in a package's comments.
func parseWants(fset *token.FileSet, pkg *Package) []*expectation {
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				if !strings.HasPrefix(c.Text, wantPrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, m := range wantRe.FindAllStringSubmatch(c.Text[len(wantPrefix):], -1) {
					wants = append(wants, &expectation{
						file:   pos.Filename,
						line:   pos.Line,
						rule:   m[1],
						substr: m[2],
					})
				}
			}
		}
	}
	return wants
}

// loadTestdata typechecks testdata/src/<name> as a synthetic package
// outside the module graph (imports resolve against the real module).
func loadTestdata(t *testing.T, name string) *Package {
	t.Helper()
	pkg, err := loadDir(".", "testdata/src/"+name, "hbvettest/"+name)
	if err != nil {
		t.Fatalf("loading testdata/src/%s: %v", name, err)
	}
	return pkg
}

// runOn applies one analyzer to one package the way RunAnalyzers does —
// same suppression scan, same malformed-directive reporting — but
// without the Applies scope filter: the harness chooses the target.
func runOn(t *testing.T, a *Analyzer, pkg *Package) []Diagnostic {
	t.Helper()
	supp := scanSuppressions(pkg.Fset, pkg.Files)
	diags := append([]Diagnostic{}, supp.malformed...)
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		PkgPath:  pkg.Path,
		supp:     supp,
		diags:    &diags,
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("%s on %s: %v", a.Name, pkg.Path, err)
	}
	sortDiagnostics(diags)
	return diags
}

// checkTestdata runs the analyzer over its testdata package and
// requires a one-to-one match between diagnostics and wants.
func checkTestdata(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	pkg := loadTestdata(t, name)
	wants := parseWants(pkg.Fset, pkg)
	if len(wants) == 0 {
		t.Fatalf("testdata/src/%s declares no // want expectations", name)
	}
	matchWants(t, wants, runOn(t, a, pkg))
}

// matchWants requires a one-to-one match between diagnostics and wants.
func matchWants(t *testing.T, wants []*expectation, diags []Diagnostic) {
	t.Helper()
outer:
	for _, d := range diags {
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line &&
				w.rule == d.Analyzer && strings.Contains(d.Message, w.substr) {
				w.matched = true
				continue outer
			}
		}
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: want %s diagnostic containing %q, got none",
				w.file, w.line, w.rule, w.substr)
		}
	}
}
