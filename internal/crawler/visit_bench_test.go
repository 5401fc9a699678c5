package crawler

import (
	"testing"

	"headerbid/internal/sitegen"
)

// benchSites picks one non-HB and one HB site from a small world.
func benchSites(b *testing.B) (w *sitegen.World, nonHB, hb *sitegen.Site) {
	b.Helper()
	cfg := sitegen.DefaultConfig(42)
	cfg.NumSites = 200
	w = sitegen.Generate(cfg)
	for _, s := range w.Sites {
		if s.HB && hb == nil {
			hb = s
		}
		if !s.HB && nonHB == nil {
			nonHB = s
		}
	}
	if nonHB == nil || hb == nil {
		b.Fatal("world lacks a non-HB or HB site")
	}
	return w, nonHB, hb
}

// BenchmarkVisit_NonHB measures one clean-slate visit of a page without
// header bidding — the crawl's majority case, and the case the lazy
// detector targets: no auction, no partner exchange, no render event
// means no detector map may materialize.
func BenchmarkVisit_NonHB(b *testing.B) {
	w, site, _ := benchSites(b)
	opts := DefaultOptions(42)
	vrt := newVisitRuntime()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := vrt.visit(w, site, 0, opts, nil, nil)
		if rec.HB {
			b.Fatal("non-HB site detected as HB")
		}
	}
}

// BenchmarkVisit_HB is the counterpart full-protocol visit, for scale.
func BenchmarkVisit_HB(b *testing.B) {
	w, _, site := benchSites(b)
	opts := DefaultOptions(42)
	vrt := newVisitRuntime()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := vrt.visit(w, site, 0, opts, nil, nil)
		if !rec.HB {
			b.Fatal("HB site not detected")
		}
	}
}
