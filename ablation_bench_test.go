// Ablation benchmarks for the design choices DESIGN.md §5 calls out:
// detection channels, wrapper timeout, and the single-threaded network
// queue. Each reports accuracy/latency/revenue metrics so the effect of
// the design choice is visible next to its cost.
package headerbid

import (
	"strconv"
	"testing"

	"headerbid/internal/analysis"
	"headerbid/internal/core"
	"headerbid/internal/crawler"
	"headerbid/internal/dataset"
	"headerbid/internal/overlay"
	"headerbid/internal/staticdet"
	"headerbid/internal/stats"
)

const ablationSites = 1500

func ablationWorld(seed int64) *World {
	cfg := DefaultWorldConfig(seed)
	cfg.NumSites = ablationSites
	return GenerateWorld(cfg)
}

// accuracy compares detector verdicts against the world's ground truth.
func accuracy(w *World, recs []*dataset.SiteRecord) (recall, precision, facetAcc float64) {
	var tp, fp, fn, facetOK, facetN int
	for _, r := range recs {
		s, ok := w.SiteByDomain(r.Domain)
		if !ok {
			continue
		}
		switch {
		case r.HB && s.HB:
			tp++
			facetN++
			if r.FacetValue() == s.Facet {
				facetOK++
			}
		case r.HB && !s.HB:
			fp++
		case !r.HB && s.HB:
			fn++
		}
	}
	if tp+fn > 0 {
		recall = float64(tp) / float64(tp+fn)
	}
	if tp+fp > 0 {
		precision = float64(tp) / float64(tp+fp)
	}
	if facetN > 0 {
		facetAcc = float64(facetOK) / float64(facetN)
	}
	return
}

// BenchmarkAblationDetectionMethods compares event-only, request-only and
// combined detection (the paper's argument for combining methods 2+3).
func BenchmarkAblationDetectionMethods(b *testing.B) {
	w := ablationWorld(41)
	run := func(opts *core.Options) (recall, precision, facetAcc float64) {
		c := crawler.DefaultOptions(41)
		c.Detector = opts
		recs := crawler.CrawlWorld(w, c)
		return accuracy(w, recs)
	}
	var evRecall, evFacet, reqRecall, reqFacet, bothRecall, bothFacet float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evRecall, _, evFacet = run(&core.Options{Events: true})
		reqRecall, _, reqFacet = run(&core.Options{Requests: true})
		bothRecall, _, bothFacet = run(nil)
	}
	b.ReportMetric(100*evRecall, "events_recall_pct")
	b.ReportMetric(100*evFacet, "events_facet_pct")
	b.ReportMetric(100*reqRecall, "requests_recall_pct")
	b.ReportMetric(100*reqFacet, "requests_facet_pct")
	b.ReportMetric(100*bothRecall, "combined_recall_pct")
	b.ReportMetric(100*bothFacet, "combined_facet_pct")
}

// BenchmarkAblationStaticVsDynamic compares static source scanning with
// the dynamic detector on the same rendered pages (the §3.1 argument for
// not using static analysis on the live crawl: dead markup and
// configless includes mislead it).
func BenchmarkAblationStaticVsDynamic(b *testing.B) {
	w := ablationWorld(43)
	det := staticdet.New()
	var staticFP, staticTP, staticFN int
	var dynRecall, dynPrecision float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		staticFP, staticTP, staticFN = 0, 0, 0
		for _, s := range w.Sites {
			got := det.Scan(w.PageHTML(s)).HB
			switch {
			case got && s.HB:
				staticTP++
			case got && !s.HB:
				staticFP++
			case !got && s.HB:
				staticFN++
			}
		}
		recs := crawler.CrawlWorld(w, crawler.DefaultOptions(43))
		dynRecall, dynPrecision, _ = accuracy(w, recs)
	}
	staticRecall := float64(staticTP) / float64(max(1, staticTP+staticFN))
	staticPrecision := float64(staticTP) / float64(max(1, staticTP+staticFP))
	b.ReportMetric(100*staticRecall, "static_recall_pct")
	b.ReportMetric(100*staticPrecision, "static_precision_pct")
	b.ReportMetric(float64(staticFP), "static_false_pos")
	b.ReportMetric(100*dynRecall, "dynamic_recall_pct")
	b.ReportMetric(100*dynPrecision, "dynamic_precision_pct")
}

// BenchmarkAblationTimeout sweeps the wrapper deadline: shorter deadlines
// cut page latency but lose late (potentially higher) bids — the
// trade-off behind the industry's 3-second default. One world is crawled
// per deadline, the deadline overriding every publisher's through the
// overlay (as hbsweep -timeouts does).
func BenchmarkAblationTimeout(b *testing.B) {
	w := ablationWorld(47)
	for _, timeoutMS := range []int{1000, 3000, 8000} {
		b.Run(strconv.Itoa(timeoutMS)+"ms", func(b *testing.B) {
			opts := crawler.DefaultOptions(47)
			opts.Overlay = &overlay.Overlay{TimeoutMS: timeoutMS}
			var med float64
			var lateShare float64
			var revenue float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				recs := crawler.CrawlWorld(w, opts)
				lat := fold(analysis.NewLatencyAccumulator(), recs).Result()
				med = lat.MedianMS
				var bids, late int
				revenue = 0
				for _, r := range recs {
					for _, a := range r.Auctions {
						for _, bd := range a.Bids {
							bids++
							if bd.Late {
								late++
							}
						}
						revenue += a.WinnerCPM
					}
				}
				if bids > 0 {
					lateShare = float64(late) / float64(bids)
				}
			}
			b.ReportMetric(med, "median_ms")
			b.ReportMetric(100*lateShare, "late_bid_pct")
			b.ReportMetric(revenue, "revenue_cpm_sum")
		})
	}
}

// BenchmarkAblationNetworkQueue toggles the single-threaded JS queue
// model (§7.2). The queue only binds when responses contend for the main
// thread, so the metric is the mean HB latency over sites with four or
// more demand partners (single-partner sites — the median case — never
// contend, which is itself a finding worth keeping visible).
func BenchmarkAblationNetworkQueue(b *testing.B) {
	w := ablationWorld(53)
	run := func(noQueue bool) (all stats.Box, busyMean float64) {
		opts := crawler.DefaultOptions(53)
		opts.NoQueueing = noQueue
		recs := crawler.CrawlWorld(w, opts)
		var lats, busy []float64
		for _, r := range recs {
			if r.HB && r.TotalHBLatencyMS > 0 {
				lats = append(lats, r.TotalHBLatencyMS)
				if len(r.Partners) >= 4 {
					busy = append(busy, r.TotalHBLatencyMS)
				}
			}
		}
		box, _ := stats.BoxOf(lats)
		return box, stats.Mean(busy)
	}
	var withQ, withoutQ stats.Box
	var busyQ, busyNoQ float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		withQ, busyQ = run(false)
		withoutQ, busyNoQ = run(true)
	}
	b.ReportMetric(withQ.Median, "queued_median_ms")
	b.ReportMetric(withoutQ.Median, "unqueued_median_ms")
	b.ReportMetric(busyQ, "queued_ge4p_mean_ms")
	b.ReportMetric(busyNoQ, "unqueued_ge4p_mean_ms")
	b.ReportMetric(busyQ-busyNoQ, "queue_cost_ms")
}
