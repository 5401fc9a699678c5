// hbvet is this repo's invariant checker: a multichecker driver over
// the internal/lint analyzer suite. It enforces, at compile time, the
// contracts every reported figure rests on — the determinism wall
// (detwall), the hot-path allocation discipline (hotalloc), the metric
// merge laws (metriclaws), streaming cancellation hygiene (sinkctx),
// the panic quarantine (recoverscope), guarded trace emission
// (obsguard) — and keeps the root facade and internal/ free of
// exported names that only tests reach (deadexport).
//
// Usage:
//
//	hbvet [-rules detwall,hotalloc] [-list] [packages]
//
// With no package arguments it checks ./... (which includes the cmd/
// and examples/ trees). deadexport judges a name by its uses across the
// whole module whatever the packages named, so
// `hbvet -rules deadexport ./internal/stats` reports what ./... reports
// for stats. Exit status is 1 when any diagnostic is
// reported, 2 on load or usage errors. Suppress an intentional
// violation in place with
//
//	//hbvet:allow <rule> <reason>
//
// — the reason is mandatory and is the documentation of why the code
// is exempt (see DESIGN.md, "Enforced invariants").
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"headerbid/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// analyzers returns the suite the driver runs: exactly the registered
// set. The meta-test in main_test.go asserts nothing declared in
// internal/lint is missing from it.
func analyzers() []*lint.Analyzer {
	return lint.All()
}

func run(args []string) int {
	fs := flag.NewFlagSet("hbvet", flag.ContinueOnError)
	list := fs.Bool("list", false, "list the registered analyzers and exit")
	rules := fs.String("rules", "", "comma-separated analyzer names to run (default: all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	suite := analyzers()
	if *list {
		for _, a := range suite {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *rules != "" {
		want := make(map[string]bool)
		for _, r := range strings.Split(*rules, ",") {
			want[strings.TrimSpace(r)] = true
		}
		var filtered []*lint.Analyzer
		for _, a := range suite {
			if want[a.Name] {
				filtered = append(filtered, a)
				delete(want, a.Name)
			}
		}
		if len(want) > 0 {
			unknown := make([]string, 0, len(want))
			for r := range want {
				unknown = append(unknown, r)
			}
			sort.Strings(unknown)
			fmt.Fprintf(os.Stderr, "hbvet: unknown rule(s): %s (try -list)\n", strings.Join(unknown, ", "))
			return 2
		}
		suite = filtered
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hbvet: %v\n", err)
		return 2
	}
	diags, err := lint.RunAnalyzers(pkgs, suite)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hbvet: %v\n", err)
		return 2
	}
	cwd, _ := os.Getwd()
	for _, d := range diags {
		fmt.Printf("%s: %s: %s\n", relPosition(cwd, d), d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "hbvet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// relPosition renders a diagnostic position with the filename relative
// to cwd when possible (stable, clickable output in CI logs).
func relPosition(cwd string, d lint.Diagnostic) string {
	name := d.Pos.Filename
	if cwd != "" {
		if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = rel
		}
	}
	return fmt.Sprintf("%s:%d:%d", name, d.Pos.Line, d.Pos.Column)
}
