// Latency study: crawl a mid-sized synthetic web with the streaming
// Experiment pipeline and reproduce the paper's core latency findings —
// the total-HB-latency CDF (Figure 12, accumulated incrementally while
// the crawl runs), latency vs number of demand partners (Figure 15) and
// the headline HB-vs-waterfall comparison ("HB latency can be up to 3x
// waterfall in the median case"), both accumulated as sharded streaming
// Metrics on the worker goroutines.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"headerbid"
	"headerbid/internal/report"
)

func main() {
	log.SetFlags(0)

	const seed = 11

	// The waterfall comparison runs its baseline over the world, so the
	// world is generated first and the metric bound to it.
	cfg := headerbid.DefaultWorldConfig(seed)
	cfg.NumSites = 3000
	world := headerbid.GenerateWorld(cfg)

	// Figure 12 accumulates while visits stream (every Run computes it as
	// Results.Latency). Figure 15 and the waterfall comparison ride the
	// metrics API: each crawl worker folds its visits into a private
	// shard, merged when the run ends — no record slice, no emit-path
	// serialization.
	latVsPartners := headerbid.NewLatencyVsPartnerCount(10)
	vsWaterfall := headerbid.NewWaterfallComparison(world, seed)
	res, err := headerbid.NewExperiment(
		headerbid.WithWorld(world),
		headerbid.WithSeed(seed),
		headerbid.WithMetrics(latVsPartners, vsWaterfall),
	).Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("crawled %d sites in %s (virtual clock)\n",
		res.Stats.Visits, res.Elapsed.Round(time.Millisecond))

	rw := report.New(os.Stdout)

	// Figure 12: the latency CDF with the paper's two markers — computed
	// incrementally during the crawl, no batch pass over the dataset.
	lat := res.Latency
	rw.Figure12(lat)

	// Figure 15: more partners, more latency — straight from the merged
	// metric shards.
	rw.Figure15(latVsPartners.Result())

	// Headline: HB vs the waterfall standard over the same partners.
	cmp := vsWaterfall.Result()
	rw.Comparison(cmp)

	fmt.Printf("\npaper: median ≈600ms, ≥3s in ~10%% of sites, HB/waterfall median ratio up to 3x\n")
	fmt.Printf("here:  median %.0fms, ≥3s in %.1f%%, ratio %.2fx\n",
		lat.MedianMS, 100*lat.FracOver3s, cmp.MedianRatio)
}
