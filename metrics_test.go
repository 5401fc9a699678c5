package headerbid

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"testing"

	"headerbid/internal/analysis"
	"headerbid/internal/crawler"
)

// metricsTestWorld is shared across the metrics integration tests (world
// generation dominates their runtime).
func metricsTestWorld(t *testing.T) *World {
	t.Helper()
	cfg := DefaultWorldConfig(5)
	cfg.NumSites = 400
	return GenerateWorld(cfg)
}

func renderFigureReport(t *testing.T, w *World, workers int) []byte {
	t.Helper()
	fr := NewFigureReport()
	_, err := NewExperiment(
		WithWorld(w),
		WithSeed(5),
		WithDays(2),
		WithWorkers(workers),
		WithMetrics(fr),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fr.Render(&buf)
	return buf.Bytes()
}

// TestFigureReportByteIdenticalAcrossWorkers is the metrics-API
// determinism gate: the full figure report must be byte-identical
// whether the crawl folded shards on one worker or NumCPU workers, and
// identical to the crawler's own record slice folded once.
func TestFigureReportByteIdenticalAcrossWorkers(t *testing.T) {
	w := metricsTestWorld(t)

	one := renderFigureReport(t, w, 1)
	many := renderFigureReport(t, w, max(2, runtime.NumCPU()))
	if !bytes.Equal(one, many) {
		t.Fatalf("figure report differs between 1 and %d workers", max(2, runtime.NumCPU()))
	}

	opts := DefaultCrawlConfig(5)
	opts.Days = 2
	var batch bytes.Buffer
	fold(NewFigureReport(), crawler.CrawlWorld(w, opts)).Render(&batch)
	if !bytes.Equal(one, batch.Bytes()) {
		t.Fatal("sharded figure report differs from one fold over the crawler's records")
	}
	if len(one) == 0 || !bytes.Contains(one, []byte("Figure 24")) {
		t.Fatal("figure report suspiciously incomplete")
	}
}

// TestWithMetricsMatchesMetricSink: folding a metric per-worker via
// WithMetrics and folding it on the ordered emit path via MetricSink
// must agree on a completed run.
func TestWithMetricsMatchesMetricSink(t *testing.T) {
	w := metricsTestWorld(t)

	sharded := analysis.NewTopPartners(10)
	ordered := analysis.NewTopPartners(10)
	sink := NewMetricSink(ordered)
	_, err := NewExperiment(
		WithWorld(w), WithSeed(5),
		WithMetrics(sharded), WithSink(sink),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sharded.Result(), ordered.Result()) {
		t.Fatal("sharded metric result differs from ordered MetricSink result")
	}
}

// TestResultsMetricsBag: the attached instances hold the merged run
// totals.
func TestResultsMetricsBag(t *testing.T) {
	w := metricsTestWorld(t)

	top := analysis.NewTopPartners(5)
	late := analysis.NewLateBids()
	res, err := NewExperiment(
		WithWorld(w), WithSeed(5),
		WithMetrics(top, late),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The merged instances hold the run's totals.
	if len(top.Result()) == 0 {
		t.Fatal("attached top-partners metric is empty after the run")
	}
	if late.Result().TotalAuctions == 0 {
		t.Fatal("attached late-bids metric counted no auction")
	}
	sum := res.Summary
	if sum.SitesCrawled != 400 {
		t.Fatalf("Summary.SitesCrawled = %d, want 400", sum.SitesCrawled)
	}
}

// TestWaterfallComparisonAcrossWorkers: the §7.2 metric attached to a
// run must give the same comparison at 1 and 4 workers, equal to one
// fold over the crawler's records.
func TestWaterfallComparisonAcrossWorkers(t *testing.T) {
	w := metricsTestWorld(t)
	run := func(workers int) analysis.ProtocolComparison {
		m := NewWaterfallComparison(w, 5)
		if _, err := NewExperiment(WithWorld(w), WithSeed(5), WithWorkers(workers), WithMetrics(m)).Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return m.Result()
	}
	one, four := run(1), run(4)
	if !reflect.DeepEqual(one, four) {
		t.Fatalf("comparison differs between 1 and 4 workers:\n 1: %+v\n 4: %+v", one, four)
	}
	want := fold(NewWaterfallComparison(w, 5), crawler.CrawlWorld(w, DefaultCrawlConfig(5))).Result()
	if !reflect.DeepEqual(one, want) {
		t.Fatalf("comparison differs from one fold:\n got %+v\nwant %+v", one, want)
	}
	if one.Sites == 0 {
		t.Fatal("comparison saw no sites")
	}
}
