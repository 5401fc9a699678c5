// Benchmark harness: one benchmark per table and figure of the paper
// (DESIGN.md §4 maps each to its metric). Every benchmark measures the
// cost of folding a shared crawl dataset into the figure's metric and
// reports the headline numbers as custom metrics, so
// `go test -bench=. -benchmem` regenerates the paper's rows. The
// published value sits in a "paper:" comment next to each metric it is
// compared with.
package headerbid

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"headerbid/internal/analysis"
	"headerbid/internal/crawler"
	"headerbid/internal/dataset"
	"headerbid/internal/hb"
	"headerbid/internal/staticdet"
	"headerbid/internal/wayback"
)

// benchWorldSize balances fidelity and runtime: large enough that every
// figure has a dense sample, small enough that the full bench suite runs
// in minutes. cmd/hbcrawl regenerates the full 35k dataset.
const benchWorldSize = 8000

var (
	benchOnce  sync.Once
	benchWorld *World
	benchRecs  []*dataset.SiteRecord
)

func benchData(b *testing.B) (*World, []*dataset.SiteRecord) {
	b.Helper()
	benchOnce.Do(func() {
		cfg := DefaultWorldConfig(1)
		cfg.NumSites = benchWorldSize
		benchWorld = GenerateWorld(cfg)
		benchRecs = crawler.CrawlWorld(benchWorld, DefaultCrawlConfig(1))
	})
	return benchWorld, benchRecs
}

// BenchmarkTable1_DatasetSummary regenerates Table 1.
func BenchmarkTable1_DatasetSummary(b *testing.B) {
	_, recs := benchData(b)
	var sum dataset.Summary
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum = fold(analysis.NewSummary(), recs).Summary()
	}
	b.ReportMetric(float64(sum.SitesCrawled), "sites")
	b.ReportMetric(100*sum.AdoptionRate(), "hb_pct")        // paper: 14.28
	b.ReportMetric(float64(sum.Auctions), "auctions")       // paper: 798,629 at 35k sites x 34 days
	b.ReportMetric(float64(sum.Bids), "bids")               // paper: 241,392
	b.ReportMetric(float64(sum.DemandPartners), "partners") // paper: 84
}

// BenchmarkAdoptionByRankBand regenerates the §3.2 rank-band adoption.
func BenchmarkAdoptionByRankBand(b *testing.B) {
	_, recs := benchData(b)
	var bands []analysis.RankBandAdoption
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bands = fold(analysis.NewAdoptionByRankBand(), recs).Result()
	}
	if len(bands) > 0 {
		b.ReportMetric(100*bands[0].Adoption, "top5k_pct") // paper: 20-23
	}
	if len(bands) > 1 {
		b.ReportMetric(100*bands[1].Adoption, "mid_pct") // paper: 12-17
	}
}

// BenchmarkFigure4_AdoptionOverYears regenerates the Wayback study.
func BenchmarkFigure4_AdoptionOverYears(b *testing.B) {
	archive := wayback.NewArchive(1, 1000)
	det := staticdet.New()
	var years []analysis.YearAdoption
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		years = analysis.AdoptionOverYears(archive, det)
	}
	b.ReportMetric(100*years[0].Rate, "y2014_pct")            // paper: ~10
	b.ReportMetric(100*years[len(years)-1].Rate, "y2019_pct") // paper: ~20
}

// BenchmarkFacetBreakdown regenerates §4.6 (server 48%, hybrid 34.7%,
// client 17.3%).
func BenchmarkFacetBreakdown(b *testing.B) {
	_, recs := benchData(b)
	var shares []analysis.FacetShare
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shares = fold(analysis.NewFacetBreakdown(), recs).Result()
	}
	for _, s := range shares {
		switch s.Facet {
		case hb.FacetServer:
			b.ReportMetric(100*s.Share, "server_pct")
		case hb.FacetHybrid:
			b.ReportMetric(100*s.Share, "hybrid_pct")
		case hb.FacetClient:
			b.ReportMetric(100*s.Share, "client_pct")
		}
	}
}

// BenchmarkFigure8_TopPartners regenerates partner popularity (DFP ≈80%).
func BenchmarkFigure8_TopPartners(b *testing.B) {
	_, recs := benchData(b)
	var top []analysis.PartnerShare
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		top = fold(analysis.NewTopPartners(11), recs).Result()
	}
	for _, p := range top {
		if p.Slug == "dfp" {
			b.ReportMetric(100*p.Share, "dfp_pct") // paper: >80
		}
	}
	b.ReportMetric(float64(len(top)), "rows")
}

// BenchmarkFigure9_PartnersPerSite regenerates the partner-count CDF.
func BenchmarkFigure9_PartnersPerSite(b *testing.B) {
	_, recs := benchData(b)
	var res analysis.PartnersPerSiteResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = fold(analysis.NewPartnersPerSite(), recs).Result()
	}
	b.ReportMetric(100*res.FracOne, "one_pct")   // paper: >50
	b.ReportMetric(100*res.FracGE5, "ge5_pct")   // paper: ~20
	b.ReportMetric(100*res.FracGE10, "ge10_pct") // paper: ~5
}

// BenchmarkFigure10_PartnerCombos regenerates combination shares (DFP
// alone 48%, Criteo 2.37%, Yieldlab 1.68%).
func BenchmarkFigure10_PartnerCombos(b *testing.B) {
	_, recs := benchData(b)
	var combos []analysis.ComboShare
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		combos = fold(analysis.NewPartnerCombos(15), recs).Result()
	}
	for _, c := range combos {
		switch c.Key {
		case "dfp":
			b.ReportMetric(100*c.Share, "dfp_alone_pct")
		case "criteo":
			b.ReportMetric(100*c.Share, "criteo_alone_pct")
		case "yieldlab":
			b.ReportMetric(100*c.Share, "yieldlab_alone_pct")
		}
	}
}

// BenchmarkFigure11_PartnersPerFacet regenerates per-facet bid shares
// (Rubicon and AppNexus top-2 in every facet).
func BenchmarkFigure11_PartnersPerFacet(b *testing.B) {
	_, recs := benchData(b)
	var byFacet map[hb.Facet][]analysis.PartnerBidShare
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		byFacet = fold(analysis.NewPartnersPerFacet(10), recs).Result()
	}
	if rows := byFacet[hb.FacetServer]; len(rows) > 0 {
		b.ReportMetric(100*rows[0].Share, "server_top_pct")
	}
	if rows := byFacet[hb.FacetHybrid]; len(rows) > 0 {
		b.ReportMetric(100*rows[0].Share, "hybrid_top_pct")
	}
}

// BenchmarkFigure12_LatencyCDF regenerates the total HB latency CDF
// (median ≈600ms; ≥3s in ~10% of sites).
func BenchmarkFigure12_LatencyCDF(b *testing.B) {
	_, recs := benchData(b)
	var res analysis.LatencyCDFResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = fold(analysis.NewLatencyAccumulator(), recs).Result()
	}
	b.ReportMetric(res.MedianMS, "median_ms")
	b.ReportMetric(100*res.FracOver1s, "gt1s_pct")
	b.ReportMetric(100*res.FracOver3s, "gt3s_pct")
}

// BenchmarkFigure13_LatencyVsRank regenerates latency by rank bins
// (top-ranked publishers ≈310ms vs ≈500ms beyond in the paper). The
// reported metrics aggregate the top 2500 ranks against the tail, since
// single 500-rank bins carry too few HB sites at this world size to be
// stable.
func BenchmarkFigure13_LatencyVsRank(b *testing.B) {
	_, recs := benchData(b)
	var out = fold(analysis.NewLatencyVsRank(500), recs).Result()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = fold(analysis.NewLatencyVsRank(500), recs).Result()
	}
	agg := fold(analysis.NewLatencyVsRank(2500), recs).Result()
	if len(agg) > 1 {
		b.ReportMetric(agg[0].Stats.Median, "top_median_ms")
		b.ReportMetric(agg[len(agg)-1].Stats.Median, "tail_median_ms")
	}
	b.ReportMetric(float64(len(out)), "bins500")
}

// BenchmarkFigure14_PartnerLatency regenerates fastest/top/slowest
// partner latencies (fastest medians 41-217ms; slowest 646-1290ms).
func BenchmarkFigure14_PartnerLatency(b *testing.B) {
	world, recs := benchData(b)
	var res analysis.PartnerLatencyExtremes
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = fold(analysis.NewPartnerLatencies(), recs).Extremes(world.Registry, 10, 5)
	}
	if len(res.Fastest) > 0 {
		b.ReportMetric(res.Fastest[0].Stats.Median, "fastest_median_ms")
	}
	if len(res.Slowest) > 0 {
		b.ReportMetric(res.Slowest[0].Stats.Median, "slowest_median_ms")
	}
}

// BenchmarkFigure15_LatencyVsPartnerCount regenerates latency vs partner
// count (1→≈268ms, 2→≈1.09s, >2→1.3-3.0s).
func BenchmarkFigure15_LatencyVsPartnerCount(b *testing.B) {
	_, recs := benchData(b)
	var rows []analysis.CountLatency
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = fold(analysis.NewLatencyVsPartnerCount(15), recs).Result()
	}
	for _, r := range rows {
		switch r.Partners {
		case 1:
			b.ReportMetric(r.Stats.Median, "p1_median_ms")
		case 2:
			b.ReportMetric(r.Stats.Median, "p2_median_ms")
		case 5:
			b.ReportMetric(r.Stats.Median, "p5_median_ms")
		}
	}
}

// BenchmarkFigure16_LatencyVsPopularity regenerates latency variability
// by partner popularity (popular partners: tighter spreads).
func BenchmarkFigure16_LatencyVsPopularity(b *testing.B) {
	world, recs := benchData(b)
	var bins = fold(analysis.NewLatencyVsPopularity(world.Registry, 10), recs).Result()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bins = fold(analysis.NewLatencyVsPopularity(world.Registry, 10), recs).Result()
	}
	// Single tail bins are sparse; average the head (top-20 ranks) and
	// the tail (rank >40) spans so the trend is sampled robustly.
	if len(bins) > 4 {
		var head, tail float64
		var hn, tn int
		for _, bin := range bins {
			if bin.Bin < 2 {
				head += bin.Stats.WhiskerSpan()
				hn++
			} else if bin.Bin >= 4 {
				tail += bin.Stats.WhiskerSpan()
				tn++
			}
		}
		b.ReportMetric(head/float64(hn), "top20_span_ms")
		b.ReportMetric(tail/float64(tn), "tail_span_ms")
	}
}

// BenchmarkFigure17_LateBidsCDF regenerates the late-bid distribution
// (median late share ≈50%; p90 ≥80%).
func BenchmarkFigure17_LateBidsCDF(b *testing.B) {
	_, recs := benchData(b)
	var res analysis.LateBidsResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = fold(analysis.NewLateBids(), recs).Result()
	}
	b.ReportMetric(res.MedianLateShare, "median_late_pct")
	b.ReportMetric(res.P90LateShare, "p90_late_pct")
	b.ReportMetric(100*res.FracOneLate, "one_late_pct") // paper: 60
}

// BenchmarkFigure18_LateBidsPerPartner regenerates per-partner lateness
// (21 partners >50%; some at 100%).
func BenchmarkFigure18_LateBidsPerPartner(b *testing.B) {
	_, recs := benchData(b)
	var rows []analysis.PartnerLateShare
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = fold(analysis.NewLateBidsPerPartner(0, 2), recs).Result()
	}
	over50 := 0
	for _, r := range rows {
		if r.LateShare > 0.5 {
			over50++
		}
	}
	b.ReportMetric(float64(over50), "partners_gt50pct") // paper: 21
	if len(rows) > 0 {
		b.ReportMetric(100*rows[0].LateShare, "worst_late_pct") // paper: ~100
	}
}

// BenchmarkFigure19_SlotsPerSite regenerates slots-per-site CDFs (median
// 2-6; p90 5-11; ~3% above 20).
func BenchmarkFigure19_SlotsPerSite(b *testing.B) {
	_, recs := benchData(b)
	var res analysis.SlotsPerSiteResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = fold(analysis.NewSlotsPerSite(), recs).Result()
	}
	if e := res.ByFacet[hb.FacetHybrid]; e != nil {
		b.ReportMetric(e.Quantile(0.5), "hybrid_median")
		b.ReportMetric(e.Quantile(0.9), "hybrid_p90")
	}
	b.ReportMetric(100*res.FracOver20, "gt20_pct")
}

// BenchmarkFigure20_LatencyVsSlots regenerates latency vs auctioned slots
// (1-3 slots → 0.30-0.57s; 3-5 → 0.57-0.92s medians).
func BenchmarkFigure20_LatencyVsSlots(b *testing.B) {
	_, recs := benchData(b)
	var rows []analysis.CountLatency
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = fold(analysis.NewLatencyVsSlots(15), recs).Result()
	}
	for _, r := range rows {
		switch r.Partners {
		case 1:
			b.ReportMetric(r.Stats.Median, "s1_median_ms")
		case 5:
			b.ReportMetric(r.Stats.Median, "s5_median_ms")
		}
	}
}

// BenchmarkFigure21_SlotSizes regenerates slot-dimension shares (300x250
// and 728x90 dominate every facet).
func BenchmarkFigure21_SlotSizes(b *testing.B) {
	_, recs := benchData(b)
	var byFacet map[hb.Facet][]analysis.SizeShare
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		byFacet = fold(analysis.NewSlotSizes(10), recs).Result()
	}
	for _, f := range hb.Facets() {
		rows := byFacet[f]
		if len(rows) > 0 && rows[0].Size == hb.SizeMediumRectangle {
			b.ReportMetric(100*rows[0].Share, fmt.Sprintf("%s_300x250_pct", f.Short()))
		}
	}
}

// BenchmarkFigure22_PriceCDF regenerates bid-price CDFs per facet
// (client-side highest; >20% of bids above 0.5 CPM).
func BenchmarkFigure22_PriceCDF(b *testing.B) {
	_, recs := benchData(b)
	var res analysis.PriceCDFResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = fold(analysis.NewPriceCDF(), recs).Result()
	}
	if e := res.ByFacet[hb.FacetClient]; e != nil {
		b.ReportMetric(e.Quantile(0.5), "client_median_cpm")
	}
	if e := res.ByFacet[hb.FacetServer]; e != nil {
		b.ReportMetric(e.Quantile(0.5), "server_median_cpm")
	}
	b.ReportMetric(100*res.FracOverHalf, "gt_half_cpm_pct")
}

// BenchmarkFigure23_PricePerSize regenerates prices per slot size
// (120x600 most expensive; 300x250 mid; tiny mobile slots cheapest).
func BenchmarkFigure23_PricePerSize(b *testing.B) {
	_, recs := benchData(b)
	var rows []analysis.SizePrice
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = fold(analysis.NewPricePerSize(5), recs).Result()
	}
	for _, r := range rows {
		switch r.Size {
		case hb.SizeWideSkyscraper:
			b.ReportMetric(r.Stats.Median, "sz120x600_cpm")
		case hb.SizeMediumRectangle:
			b.ReportMetric(r.Stats.Median, "sz300x250_cpm")
		case hb.SizeMobileBanner:
			b.ReportMetric(r.Stats.Median, "sz320x50_cpm")
		}
	}
}

// BenchmarkFigure24_PriceVsPopularity regenerates price vs popularity
// (popular partners bid low and consistently).
func BenchmarkFigure24_PriceVsPopularity(b *testing.B) {
	world, recs := benchData(b)
	var bins = fold(analysis.NewPriceVsPopularity(world.Registry, 10), recs).Result()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bins = fold(analysis.NewPriceVsPopularity(world.Registry, 10), recs).Result()
	}
	if len(bins) > 1 {
		b.ReportMetric(bins[0].Stats.Median, "top10_median_cpm")
		b.ReportMetric(bins[len(bins)-1].Stats.Median, "tail_median_cpm")
	}
}

// BenchmarkHBVsWaterfall regenerates the headline comparison (HB median
// up to 3x waterfall; far larger at the tail).
func BenchmarkHBVsWaterfall(b *testing.B) {
	world, recs := benchData(b)
	var cmp analysis.ProtocolComparison
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmp = fold(analysis.NewWaterfallComparison(world, 1), recs).Result()
	}
	b.ReportMetric(cmp.HBLatency.Median, "hb_median_ms")
	b.ReportMetric(cmp.WaterfallLatency.Median, "wf_median_ms")
	b.ReportMetric(cmp.MedianRatio, "median_ratio")
	b.ReportMetric(cmp.P90Ratio, "p90_ratio")
}

// BenchmarkTrafficOverhead regenerates the §7.3 network-overhead numbers:
// per-visit request volume by category and the bid-request amplification
// over waterfall (industry reports said up to 2x / 100% growth).
func BenchmarkTrafficOverhead(b *testing.B) {
	world, recs := benchData(b)
	passes := analysis.MeanWaterfallPasses(world, 1)
	var ts analysis.TrafficSummary
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts = fold(analysis.NewTraffic(passes), recs).Result()
	}
	b.ReportMetric(ts.BidRequests.Mean, "bidreq_mean")
	b.ReportMetric(ts.HBRelated.Mean, "hbreq_mean")
	b.ReportMetric(ts.AmplificationVsWaterfall, "amplification_x")
	b.ReportMetric(passes, "wf_passes_mean")
}

// BenchmarkCrawl_EndToEnd is the crawl-throughput gate: a full
// world-generation-excluded crawl of a fixed site population by an
// Experiment that keeps no records, reporting sites/sec (wall-clock
// crawl throughput), ns/visit and allocs/visit.
// CI runs it with -benchtime=1x as a smoke test; PERF.md records the
// before/after profiles of the hot-path overhaul against it.
//
// One untimed crawl of the same world runs first: the world's one-time
// work (page HTML, ad-server books, the config memo) happens on a
// site's first visit, and spread over the timed visits it would make
// allocs/visit depend on the iteration count. The census workload of
// bench/, which builds fresh worlds, measures that first-visit work.
func BenchmarkCrawl_EndToEnd(b *testing.B) {
	const sites = 400
	cfg := DefaultWorldConfig(7)
	cfg.NumSites = sites
	world := GenerateWorld(cfg)
	opts := DefaultCrawlConfig(7)

	crawl := func() {
		res, err := NewExperiment(WithWorld(world), WithCrawlConfig(opts)).Run(context.Background())
		if err != nil || res.Stats.Visits != sites {
			b.Fatalf("run failed: %v (%d visits, want %d)", err, res.Stats.Visits, sites)
		}
	}
	crawl()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		crawl()
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)

	visits := float64(b.N) * sites
	secs := b.Elapsed().Seconds()
	if secs > 0 {
		b.ReportMetric(visits/secs, "sites/sec")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/visits, "ns/visit")
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/visits, "allocs/visit")
}

// BenchmarkCrawl_EndToEndMetrics is BenchmarkCrawl_EndToEnd with the
// full figure report attached via WithMetrics: every visit is folded
// into all 21 figure metrics on its worker shard. It tracks the
// absolute metrics-attached throughput; the CI overhead ceiling is
// enforced against BenchmarkCrawl_MetricsOverhead (whose interleaved
// minima cancel machine noise), not against this benchmark.
func BenchmarkCrawl_EndToEndMetrics(b *testing.B) {
	const sites = 400
	cfg := DefaultWorldConfig(7)
	cfg.NumSites = sites
	world := GenerateWorld(cfg)
	opts := DefaultCrawlConfig(7)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr := NewFigureReport()
		res, err := NewExperiment(
			WithWorld(world), WithCrawlConfig(opts), WithMetrics(fr),
		).Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Visits != sites {
			b.Fatalf("got %d visits, want %d", res.Stats.Visits, sites)
		}
		if fr.Summary().SitesCrawled != sites {
			b.Fatalf("figure report folded %d sites, want %d", fr.Summary().SitesCrawled, sites)
		}
	}
	b.StopTimer()

	visits := float64(b.N) * sites
	secs := b.Elapsed().Seconds()
	if secs > 0 {
		b.ReportMetric(visits/secs, "sites/sec")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/visits, "ns/visit")
}

// crawlOverhead measures the throughput cost of the options extra
// returns (fresh ones per crawl) — the overhead_pct the bench gate's
// ratio ceilings read, with bare_sites/sec and the extended side's
// sites/sec under metric. Bare and extended crawls are interleaved
// inside one run (alternating order) and each side is summarized by its
// *minimum* crawl time: the workload is deterministic, so scheduler
// contention and GC pauses only ever add time, making the per-side
// minimum a noise-robust estimate of true cost where a ratio of sums
// would let one contended crawl swing the result. Noise therefore almost
// always inflates overhead_pct — which is what lets the bench gate retry
// contention-inflated attempts without biasing a real regression toward
// passing. The crawl is ~3x larger than the EndToEnd gate's so each
// sample is long enough (~45ms) to average out scheduler jitter within
// itself.
func crawlOverhead(b *testing.B, metric string, extra func() []ExperimentOption) {
	const sites = 1200
	cfg := DefaultWorldConfig(7)
	cfg.NumSites = sites
	world := GenerateWorld(cfg)
	opts := DefaultCrawlConfig(7)

	runOnce := func(extended bool) time.Duration {
		eopts := []ExperimentOption{WithWorld(world), WithCrawlConfig(opts)}
		if extended {
			eopts = append(eopts, extra()...)
		}
		start := time.Now()
		res, err := NewExperiment(eopts...).Run(context.Background())
		if err != nil || res.Stats.Visits != sites {
			b.Fatalf("run failed: %v (%d visits)", err, res.Stats.Visits)
		}
		return time.Since(start)
	}
	runOnce(false) // warm up pools and page caches off the clock

	var bareMin, withMin time.Duration
	keepMin := func(d *time.Duration, v time.Duration) {
		if *d == 0 || v < *d {
			*d = v
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			keepMin(&bareMin, runOnce(false))
			keepMin(&withMin, runOnce(true))
		} else {
			keepMin(&withMin, runOnce(true))
			keepMin(&bareMin, runOnce(false))
		}
	}
	b.StopTimer()

	if bareMin > 0 {
		b.ReportMetric(100*(withMin.Seconds()-bareMin.Seconds())/bareMin.Seconds(), "overhead_pct")
		b.ReportMetric(sites/bareMin.Seconds(), "bare_sites/sec")
		b.ReportMetric(sites/withMin.Seconds(), metric)
	}
}

// BenchmarkCrawl_MetricsOverhead measures the throughput cost of
// attaching the full figure report — the number the bench gate's <=10%
// assertion reads (overhead_pct).
func BenchmarkCrawl_MetricsOverhead(b *testing.B) {
	crawlOverhead(b, "metrics_sites/sec", func() []ExperimentOption {
		return []ExperimentOption{WithMetrics(NewFigureReport())}
	})
}

// BenchmarkCrawl_ObsOverhead measures the throughput cost of compiling
// the observability layer into the crawl — run telemetry on every visit
// plus a sampled trace plan (8 of 1200 sites recorded, written to a
// discarding sink) — the number the bench gate's obs ceiling reads
// (overhead_pct). The untraced majority of visits is what the
// guarded-emission pattern (hbvet: obsguard) keeps free; this benchmark
// is the end-to-end check that it actually held.
func BenchmarkCrawl_ObsOverhead(b *testing.B) {
	crawlOverhead(b, "obs_sites/sec", func() []ExperimentOption {
		return []ExperimentOption{
			WithTelemetry(NewTelemetry()),
			WithTrace(TracePlan{MaxSites: 8}),
			WithSink(NewTraceSink(io.Discard)),
		}
	})
}

// BenchmarkCrawlStreamingVsBatch documents the memory profile of the
// streaming Experiment (JSONL dataset + Table-1 summary): allocs/op
// cover every visit's record, but each record is folded into
// incremental accumulators and dropped, so retention stays flat in
// crawl size (retained_records).
func BenchmarkCrawlStreamingVsBatch(b *testing.B) {
	cfg := DefaultWorldConfig(3)
	cfg.NumSites = 400
	world := GenerateWorld(cfg)

	b.Run("streaming", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := NewExperiment(
				WithWorld(world),
				WithSeed(3),
				WithSink(NewJSONLSink(new(countWriter))),
			).Run(context.Background())
			if err != nil || res.Summary.SitesCrawled != 400 {
				b.Fatalf("sites = %d err = %v", res.Summary.SitesCrawled, err)
			}
		}
		b.StopTimer()
		// Records are dropped as they stream; only accumulator state
		// (distinct sites/partners + one float per HB site) survives.
		b.ReportMetric(0, "retained_records")
	})
}

// countWriter counts bytes written, retaining nothing.
type countWriter int64

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}

// BenchmarkDetectorOverhead measures HBDetector's per-visit cost: one
// hybrid-site visit with the detector attached (the tool's real-time
// overhead claim).
func BenchmarkDetectorOverhead(b *testing.B) {
	cfg := DefaultWorldConfig(5)
	cfg.NumSites = 200
	world := GenerateWorld(cfg)
	var site *Site
	for _, s := range world.HBSites() {
		if s.Facet == hb.FacetHybrid {
			site = s
			break
		}
	}
	if site == nil {
		b.Skip("no hybrid site")
	}
	opts := DefaultCrawlConfig(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := VisitSite(world, site, i, opts)
		if !rec.HB {
			b.Fatal("detection lost")
		}
	}
}
