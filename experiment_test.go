package headerbid

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"headerbid/internal/analysis"
	"headerbid/internal/crawler"
	"headerbid/internal/dataset"
)

// TestStreamingSummaryMatchesBatch is the pipeline's core equivalence
// claim: an Experiment computes the same Summary and latency stats, on
// its sharded Results and through ordered MetricSinks, and streams the
// same JSONL bytes as the crawler's own record slice folded once and
// written in order — on a seeded 1k-site world, without the experiment
// retaining a single record.
func TestStreamingSummaryMatchesBatch(t *testing.T) {
	const seed, sites = 1, 1000
	w := smallWorld(sites, seed)

	// Reference: crawler.CrawlWorld's records, folded once.
	recs := crawler.CrawlWorld(w, DefaultCrawlConfig(seed))
	batchSum := fold(NewSummaryMetric(), recs).Summary()
	batchLat := fold(analysis.NewLatencyAccumulator(), recs).Result()
	var batchJSONL bytes.Buffer
	jw := dataset.NewWriter(&batchJSONL)
	for _, r := range recs {
		if err := jw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}

	// Streaming path: summary + latency on the ordered path, JSONL sink,
	// no retention.
	sumM, latM := NewSummaryMetric(), analysis.NewLatencyAccumulator()
	sumSink, latSink := NewMetricSink(sumM), NewMetricSink(latM)
	var streamJSONL bytes.Buffer
	res, err := NewExperiment(
		WithWorld(w),
		WithSeed(seed),
		WithSink(sumSink, latSink, NewJSONLSink(&streamJSONL)),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if got := sumM.Snapshot(); got != batchSum {
		t.Fatalf("summary sink diverged:\n got %+v\nwant %+v", got, batchSum)
	}
	if res.Summary != batchSum {
		t.Fatalf("Results.Summary diverged:\n got %+v\nwant %+v", res.Summary, batchSum)
	}
	if got := latM.Snapshot(); !reflect.DeepEqual(got, batchLat) {
		t.Fatalf("latency sink diverged:\n got %+v\nwant %+v", got, batchLat)
	}
	if !reflect.DeepEqual(res.Latency, batchLat) {
		t.Fatalf("Results.Latency diverged")
	}
	// The streamed dataset must be byte-identical to the reference: same
	// records, same order, same encoding.
	if !bytes.Equal(streamJSONL.Bytes(), batchJSONL.Bytes()) {
		t.Fatalf("streamed JSONL differs from the crawler's records (%d vs %d bytes)",
			streamJSONL.Len(), batchJSONL.Len())
	}
	if res.Stats.Visits != sites || res.Stats.HB != batchSum.SitesWithHB {
		t.Fatalf("stats = %+v", res.Stats)
	}
}

// TestExperimentCancellation: Run must stop promptly mid-crawl and
// return ctx.Err() when the context is cancelled.
func TestExperimentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	seen := 0
	start := time.Now()
	res, err := NewExperiment(
		WithSites(600),
		WithSeed(3),
		WithSink(SinkFunc(func(v Visit) error {
			seen++
			if seen == 15 {
				cancel()
			}
			return nil
		})),
	).Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if seen >= 600 {
		t.Fatalf("crawl completed despite cancellation (%d visits)", seen)
	}
	// Results fold on the worker shards, so after cancellation they cover
	// every *completed* visit — at least the emitted ones the sink saw
	// (in-flight visits may be folded but never emitted), and well short
	// of the full crawl.
	if res.Stats.Visits < seen {
		t.Fatalf("partial results lost visits: stats=%d seen=%d", res.Stats.Visits, seen)
	}
	if res.Stats.Visits >= 600 {
		t.Fatalf("stats report a full crawl (%d visits) despite cancellation", res.Stats.Visits)
	}
	if res.Summary.SitesCrawled != res.Stats.Visits {
		t.Fatalf("metrics disagree: summary=%d sites, stats=%d visits (single-day crawl)",
			res.Summary.SitesCrawled, res.Stats.Visits)
	}
	if d := time.Since(start); d > 20*time.Second {
		t.Fatalf("cancellation took %s", d)
	}
}

// TestExperimentSinkErrorAborts: a failing sink aborts the run and its
// error (wrapped with the sink's identity) is returned.
func TestExperimentSinkErrorAborts(t *testing.T) {
	sentinel := errors.New("disk full")
	n := 0
	_, err := NewExperiment(
		WithSites(200),
		WithSeed(5),
		WithSink(SinkFunc(func(v Visit) error {
			n++
			if n == 3 {
				return sentinel
			}
			return nil
		})),
	).Run(context.Background())
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
	if n != 3 {
		t.Fatalf("sink consumed %d visits after its error", n)
	}
}

// TestExperimentOptions: option plumbing — site count, days, workers,
// site filter and first-day offset all reach the crawler.
func TestExperimentOptions(t *testing.T) {
	var collected []*SiteRecord
	res, err := NewExperiment(
		WithSites(150),
		WithSeed(9),
		WithDays(2),
		WithWorkers(2),
		WithSink(appendTo(&collected)),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.SitesCrawled != 150 || res.Summary.CrawlDays != 2 {
		t.Fatalf("summary = %+v", res.Summary)
	}
	if len(collected) <= 150 {
		t.Fatalf("2-day crawl emitted %d records, want >150", len(collected))
	}

	// Filtered single-site experiment on a specific day.
	exp := NewExperiment(WithSites(150), WithSeed(9))
	site := exp.World().HBSites()[0]
	var one []*SiteRecord
	_, err = NewExperiment(
		WithWorld(exp.World()),
		WithSeed(9),
		WithFirstDay(2),
		WithSiteFilter(func(s *Site) bool { return s.Domain == site.Domain }),
		WithSink(appendTo(&one)),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0].VisitDay != 2 {
		t.Fatalf("filtered records = %+v", one)
	}
	// Must match the single-page entry point exactly.
	want := VisitSite(exp.World(), site, 2, DefaultCrawlConfig(9))
	if got := one[0]; got.TotalHBLatencyMS != want.TotalHBLatencyMS || got.HB != want.HB {
		t.Fatalf("filtered visit diverged from VisitSite: %+v vs %+v", got, want)
	}
}

// TestWithSeedOverridesWorldConfig: WithSeed replaces the default
// seed (1) of both the generated world's config and the crawl policy.
func TestWithSeedOverridesWorldConfig(t *testing.T) {
	exp := NewExperiment(WithSites(80), WithSeed(42))
	want := func(seed int64) *World {
		c := DefaultWorldConfig(seed)
		c.NumSites = 80
		return GenerateWorld(c)
	}
	if got := exp.World(); !reflect.DeepEqual(hbDomains(got), hbDomains(want(42))) {
		t.Fatalf("WithSeed ignored by world generation: HB sites %v, want %v", hbDomains(got), hbDomains(want(42)))
	}
	if got := exp.crawlOptions(); !reflect.DeepEqual(got, DefaultCrawlConfig(42)) {
		t.Fatalf("WithSeed ignored by the crawl policy: %+v", got)
	}
	// And without WithSeed the default seed is 1.
	if got := NewExperiment(WithSites(80)).World(); !reflect.DeepEqual(hbDomains(got), hbDomains(want(1))) {
		t.Fatalf("default seed not 1: HB sites %v", hbDomains(got))
	}
}

// hbDomains lists w's HB sites in rank order.
func hbDomains(w *World) []string {
	var out []string
	for _, s := range w.HBSites() {
		out = append(out, s.Domain)
	}
	return out
}

// closeCounter is a sink that counts its Close calls.
type closeCounter struct{ closes int }

func (c *closeCounter) Consume(Visit) error { return nil }
func (c *closeCounter) Close() error        { c.closes++; return nil }

// TestInvalidShardClosesSinks: a run refused for an invalid shard never
// crawls, but it still closes every sink exactly once, as Run promises.
func TestInvalidShardClosesSinks(t *testing.T) {
	c := &closeCounter{}
	_, err := NewExperiment(WithSites(50), WithShard(3, 2), WithSink(c)).Run(context.Background())
	if err == nil {
		t.Fatal("invalid shard 3/2 accepted")
	}
	if c.closes != 1 {
		t.Fatalf("sink closed %d times, want 1", c.closes)
	}
}
