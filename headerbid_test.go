package headerbid

import (
	"bytes"
	"context"
	"testing"

	"headerbid/internal/hb"
)

// The facade tests exercise the whole public workflow a downstream user
// follows: generate, crawl, summarize, persist, report, compare.

// fold adds every record to m in order and returns m — the one-pass
// reference the Experiment's sharded metrics are compared against.
func fold[M Metric](m M, recs []*SiteRecord) M {
	for _, r := range recs {
		m.Add(r)
	}
	return m
}

func smallWorld(sites int, seed int64) *World {
	cfg := DefaultWorldConfig(seed)
	cfg.NumSites = sites
	return GenerateWorld(cfg)
}

// appendTo returns a sink that appends every emitted record to *dst.
func appendTo(dst *[]*SiteRecord) Sink {
	return SinkFunc(func(v Visit) error {
		*dst = append(*dst, v.Record)
		return nil
	})
}

func TestPublicWorkflow(t *testing.T) {
	w := smallWorld(300, 2)
	var jsonl bytes.Buffer
	live := NewFigureReport()
	vsWaterfall := NewWaterfallComparison(w, 2)
	res, err := NewExperiment(
		WithWorld(w), WithSeed(2),
		WithSink(NewJSONLSink(&jsonl)),
		WithMetrics(live, vsWaterfall),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Summary
	if sum.SitesCrawled != 300 || sum.SitesWithHB == 0 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.AdoptionRate() <= 0.05 || sum.AdoptionRate() >= 0.4 {
		t.Fatalf("adoption = %v", sum.AdoptionRate())
	}

	// Round-trip the dataset through the public reader: the report
	// folded from the JSONL must render what the live run accumulated.
	replay := NewFigureReport()
	n := 0
	if err := ReadDatasetStream(&jsonl, func(r *SiteRecord) error {
		n++
		replay.Add(r)
		return nil
	}); err != nil || n != 300 {
		t.Fatalf("round trip: n=%d err=%v", n, err)
	}
	var liveOut, replayOut bytes.Buffer
	live.Render(&liveOut)
	replay.Render(&replayOut)
	if liveOut.Len() == 0 || !bytes.Equal(liveOut.Bytes(), replayOut.Bytes()) {
		t.Fatalf("report from the JSONL (%d bytes) differs from the live report (%d bytes)",
			replayOut.Len(), liveOut.Len())
	}

	// Waterfall comparison via the facade.
	if cmp := vsWaterfall.Result(); cmp.Sites == 0 {
		t.Fatal("comparison saw no sites")
	}
}

func TestCrawlDeterministicViaFacade(t *testing.T) {
	w := smallWorld(150, 7)
	var a, b []*SiteRecord
	for _, dst := range []*[]*SiteRecord{&a, &b} {
		if _, err := NewExperiment(WithWorld(w), WithSeed(7), WithSink(appendTo(dst))).Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if len(a) != 150 || len(b) != 150 {
		t.Fatalf("records = %d and %d, want 150", len(a), len(b))
	}
	for i := range a {
		if a[i].Domain != b[i].Domain || a[i].HB != b[i].HB ||
			a[i].TotalHBLatencyMS != b[i].TotalHBLatencyMS {
			t.Fatalf("crawl not reproducible at record %d", i)
		}
	}
}

func TestVisitSiteSinglePage(t *testing.T) {
	w := smallWorld(100, 3)
	site := w.HBSites()[0]
	rec := VisitSite(w, site, 0, DefaultCrawlConfig(3))
	if !rec.HB {
		t.Fatalf("HB site not detected: %+v", rec)
	}
	if rec.Facet != site.Facet.Short() {
		t.Fatalf("facet = %s, ground truth %s", rec.Facet, site.Facet.Short())
	}
}

func TestPartnersRegistryExposed(t *testing.T) {
	reg := Partners()
	if reg.Len() != 84 {
		t.Fatalf("partners = %d", reg.Len())
	}
}

func TestAdoptionStudyViaFacade(t *testing.T) {
	a := NewArchive(5, 400)
	years := AdoptionOverYears(a)
	if len(years) != 6 {
		t.Fatalf("years = %d", len(years))
	}
	if years[0].Rate >= years[len(years)-1].Rate {
		t.Fatal("adoption did not grow 2014->2019")
	}
}

func TestFacetConstantsWired(t *testing.T) {
	if FacetClient != hb.FacetClient {
		t.Fatal("facet constant diverged from its internal value")
	}
}

func TestCrawlWithProgressReportsCompletion(t *testing.T) {
	w := smallWorld(80, 9)
	var last, total int
	_, err := NewExperiment(WithWorld(w), WithSeed(9), WithProgress(func(done, tot int) {
		last, total = done, tot
	})).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if last != 80 || total != 80 {
		t.Fatalf("progress ended at %d/%d", last, total)
	}
}
