package snapshot_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"headerbid/internal/analysis"
	"headerbid/internal/partners"
	"headerbid/internal/report"
	"headerbid/internal/snapshot"
)

// metricConstructors instantiates every exported metric constructor of
// internal/analysis (the per-figure metrics the facade re-exports or
// bundles) plus report.NewFigures (the facade's NewFigureReport), keyed
// by constructor name. Each entry's type is snapshot.Codec — so adding a
// metric constructor whose metric lacks EncodeState/DecodeState fails
// to compile here, and TestEveryFacadeConstructorRegistered below fails
// until it also appears in this table and the snapshot registry.
var metricConstructors = map[string]snapshot.Codec{
	"NewSummary":               analysis.NewSummary(),
	"NewAdoptionByRankBand":    analysis.NewAdoptionByRankBand(),
	"NewFacetBreakdown":        analysis.NewFacetBreakdown(),
	"NewTopPartners":           analysis.NewTopPartners(12),
	"NewUniquePartners":        analysis.NewUniquePartners(),
	"NewPartnersPerSite":       analysis.NewPartnersPerSite(),
	"NewPartnerCombos":         analysis.NewPartnerCombos(15),
	"NewPartnersPerFacet":      analysis.NewPartnersPerFacet(10),
	"NewLatencyAccumulator":    analysis.NewLatencyAccumulator(),
	"NewLatencyVsRank":         analysis.NewLatencyVsRank(500),
	"NewPartnerLatencies":      analysis.NewPartnerLatencies(),
	"NewLatencyVsPartnerCount": analysis.NewLatencyVsPartnerCount(15),
	"NewLatencyVsPopularity":   analysis.NewLatencyVsPopularity(partners.Default(), 10),
	"NewLateBids":              analysis.NewLateBids(),
	"NewLateBidsPerPartner":    analysis.NewLateBidsPerPartner(25, 3),
	"NewSlotsPerSite":          analysis.NewSlotsPerSite(),
	"NewLatencyVsSlots":        analysis.NewLatencyVsSlots(15),
	"NewSlotSizes":             analysis.NewSlotSizes(10),
	"NewPriceCDF":              analysis.NewPriceCDF(),
	"NewPricePerSize":          analysis.NewPricePerSize(5),
	"NewPriceVsPopularity":     analysis.NewPriceVsPopularity(partners.Default(), 10),
	"NewTraffic":               analysis.NewTraffic(0),
	"NewDegradation":           analysis.NewDegradation(),
	"NewFigures":               report.NewFigures(partners.Default()),
}

// notShardMetrics names the analysis constructors that build no shard
// metric, with the reason.
var notShardMetrics = map[string]string{
	"NewWaterfallComparison": "bound to one world at construction; a shard file carries no world",
	"NewSiteTable":           "the per-domain table the figure metrics share, not a metric",
}

// TestEveryFacadeConstructorRegistered parses the metric packages'
// sources and asserts that every exported metric constructor they
// declare is (a) present in metricConstructors above and (b) registered
// in the snapshot registry under its stable Name(), producing the same
// concrete type — and that every registered name builds a type one of
// them produces. This is the tripwire that keeps the shard-file format
// complete and free of dead names: a new metric cannot ship without a
// snapshot codec and registry entry.
func TestEveryFacadeConstructorRegistered(t *testing.T) {
	declared := newFuncs(t, "../analysis")
	declared = append(declared, "NewFigures") // lives in internal/report

	seen := make(map[string]bool, len(declared))
	for _, fn := range declared {
		if seen[fn] {
			t.Errorf("constructor %s declared twice", fn)
		}
		seen[fn] = true
		if _, ok := notShardMetrics[fn]; ok {
			continue
		}
		m, ok := metricConstructors[fn]
		if !ok {
			t.Errorf("metric constructor %s missing from metricConstructors — give its metric a codec and register it", fn)
			continue
		}
		name := m.Name()
		got, ok := snapshot.New(name)
		if !ok {
			t.Errorf("%s's metric %q not in the snapshot registry", fn, name)
			continue
		}
		if rt, gt := reflect.TypeOf(m), reflect.TypeOf(got); rt != gt {
			t.Errorf("registry builds %v for %q, constructor %s builds %v", gt, name, fn, rt)
		}
	}
	for fn := range metricConstructors {
		if !seen[fn] {
			t.Errorf("metricConstructors entry %s has no matching declaration", fn)
		}
	}
	for fn := range notShardMetrics {
		if !seen[fn] {
			t.Errorf("notShardMetrics entry %s has no matching declaration", fn)
		}
	}
	// And the reverse direction: every registered name must decode to a
	// type some metric constructor produces (figure_report included), so
	// the registry carries no dead names.
	byType := make(map[reflect.Type]bool, len(metricConstructors))
	for _, m := range metricConstructors {
		byType[reflect.TypeOf(m)] = true
	}
	for _, name := range snapshot.Names() {
		m, _ := snapshot.New(name)
		if !byType[reflect.TypeOf(m)] {
			t.Errorf("registry name %q builds %v, which no metric constructor produces", name, reflect.TypeOf(m))
		}
	}
}

// newFuncs returns the exported top-level New* function names declared
// in the non-test Go files of one package directory.
func newFuncs(t *testing.T, dir string) []string {
	t.Helper()
	fset := token.NewFileSet()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parsing %s: %v", path, err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || !fd.Name.IsExported() || !strings.HasPrefix(fd.Name.Name, "New") {
				continue
			}
			out = append(out, fd.Name.Name)
		}
	}
	if len(out) == 0 {
		t.Fatalf("no New* constructors found in %s — wrong path?", dir)
	}
	return out
}
