package headerbid

import (
	"bytes"
	"context"
	"testing"
	"time"
)

// BenchmarkSweep_WorldReuse measures what sharing one world across
// sweep variants buys: the marginal cost of one variant (a crawl over
// the already-generated, cache-warm world — page HTML rendered, partner
// exchanges built, host dispatch precomputed) against a fresh-run cost
// (world generation plus a cold first crawl). The bench gate asserts
// variant_pct — 100 × variant-minimum / fresh-minimum — stays below its
// ceiling, i.e. that sweeps never silently regress into regenerating or
// re-warming per-variant state. Like the metrics-overhead gate, both
// sides interleave in one run and are summarized by per-side minima:
// the workload is deterministic, so noise only ever adds time, and
// contention almost always inflates the ratio's numerator and
// denominator alike rather than hiding a real regression.
func BenchmarkSweep_WorldReuse(b *testing.B) {
	const sites = 1200
	cfg := DefaultWorldConfig(7)
	cfg.NumSites = sites

	crawl := func(w *World) {
		res, err := NewExperiment(WithWorld(w), WithSeed(7)).Run(context.Background())
		if err != nil || res.Stats.Visits != sites {
			b.Fatalf("run failed: %v (%d visits)", err, res.Stats.Visits)
		}
	}

	// The shared world every "variant" crawl reuses, warmed off the
	// clock exactly as a sweep's baseline warms it for later variants.
	shared := GenerateWorld(cfg)
	crawl(shared)

	variantOnce := func() time.Duration {
		start := time.Now()
		crawl(shared)
		return time.Since(start)
	}
	freshOnce := func() time.Duration {
		start := time.Now()
		crawl(GenerateWorld(cfg))
		return time.Since(start)
	}

	var variantMin, freshMin time.Duration
	keepMin := func(d *time.Duration, v time.Duration) {
		if *d == 0 || v < *d {
			*d = v
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			keepMin(&freshMin, freshOnce())
			keepMin(&variantMin, variantOnce())
		} else {
			keepMin(&variantMin, variantOnce())
			keepMin(&freshMin, freshOnce())
		}
	}
	b.StopTimer()

	if freshMin > 0 {
		b.ReportMetric(100*variantMin.Seconds()/freshMin.Seconds(), "variant_pct")
		b.ReportMetric(float64(freshMin.Milliseconds()), "fresh_ms")
		b.ReportMetric(float64(variantMin.Milliseconds()), "variant_ms")
	}
}

// BenchmarkSweep_TimeoutAxis is the end-to-end sweep benchmark: a
// three-variant timeout sweep plus baseline over one shared 400-site
// world, comparison included — the cost profile of the scenario engine
// itself rather than of one crawl.
func BenchmarkSweep_TimeoutAxis(b *testing.B) {
	const sites = 400
	cfg := DefaultWorldConfig(7)
	cfg.NumSites = sites
	world := GenerateWorld(cfg)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmp, err := NewSweep(
			WithSweepWorld(world),
			WithSweepSeed(7),
			WithAxes(TimeoutAxis(500, 3000, 10000)),
		).Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if got := len(cmp.Variants()); got != 4 {
			b.Fatalf("got %d variants, want 4", got)
		}
		var buf bytes.Buffer
		cmp.Render(&buf)
		if buf.Len() == 0 {
			b.Fatal("empty comparison render")
		}
	}
	b.StopTimer()

	visits := float64(b.N) * sites * 4
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(visits/secs, "visits/sec")
	}
}
