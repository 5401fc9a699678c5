package analysis

import (
	"math/rand"
	"reflect"
	"testing"

	"headerbid/internal/crawler"
	"headerbid/internal/dataset"
	"headerbid/internal/sitegen"
	"headerbid/internal/staticdet"
	"headerbid/internal/wayback"
)

func TestAdoptionOverYearsShape(t *testing.T) {
	a := wayback.NewArchive(1, 600)
	years := AdoptionOverYears(a, staticdet.New())
	if len(years) != len(wayback.Years) {
		t.Fatalf("years = %d", len(years))
	}
	// Paper's Figure 4 shape: ~10% early, rising to ~20% steady state.
	first, last := years[0], years[len(years)-1]
	if first.Year != 2014 || last.Year != 2019 {
		t.Fatalf("year ordering wrong: %v..%v", first.Year, last.Year)
	}
	if first.Rate < 0.06 || first.Rate > 0.15 {
		t.Errorf("2014 rate %.3f, want ≈0.10", first.Rate)
	}
	if last.Rate < 0.16 || last.Rate > 0.26 {
		t.Errorf("2019 rate %.3f, want ≈0.20", last.Rate)
	}
	if last.Rate <= first.Rate {
		t.Error("adoption did not grow")
	}
	// Static analysis tracks ground truth closely on archives.
	for _, y := range years {
		if diff := y.Rate - y.TrueRate; diff < -0.03 || diff > 0.03 {
			t.Errorf("year %d: detected %.3f vs truth %.3f", y.Year, y.Rate, y.TrueRate)
		}
	}
}

func TestAdoptionOverYearsNilDetectorDefaults(t *testing.T) {
	a := wayback.NewArchive(2, 100)
	years := AdoptionOverYears(a, nil)
	if len(years) == 0 {
		t.Fatal("nil detector not defaulted")
	}
}

// waterfallCrawl is the 1200-site crawl the §7.2 tests compare on.
func waterfallCrawl(t *testing.T) (*sitegen.World, []*dataset.SiteRecord) {
	t.Helper()
	cfg := sitegen.DefaultConfig(5)
	cfg.NumSites = 1200
	w := sitegen.Generate(cfg)
	return w, crawler.CrawlWorld(w, crawler.DefaultOptions(5))
}

func TestCompareWithWaterfall(t *testing.T) {
	w, recs := waterfallCrawl(t)
	cmp := fold(NewWaterfallComparison(w, 5), recs).Result()

	if cmp.Sites < 100 {
		t.Fatalf("too few compared sites: %d", cmp.Sites)
	}
	// The paper's headline: HB is slower than waterfall, by up to 3x at
	// the median and much more in the tail.
	if cmp.MedianRatio <= 1.0 {
		t.Fatalf("HB/waterfall median ratio %.2f; HB must be slower", cmp.MedianRatio)
	}
	if cmp.MedianRatio > 3.5 {
		t.Fatalf("median ratio %.2f beyond the paper's 'up to 3x'", cmp.MedianRatio)
	}
	if cmp.P90Ratio < cmp.RatioMedian {
		t.Fatalf("tail ratio %.2f below median ratio %.2f", cmp.P90Ratio, cmp.RatioMedian)
	}
	if cmp.P90Ratio > 20 {
		t.Fatalf("p90 ratio %.2f beyond the paper's 'up to 15x'", cmp.P90Ratio)
	}
	// Waterfall leaves money on the table; HB does not (by construction).
	if cmp.RevenueLossMean < 0 {
		t.Fatalf("negative revenue loss: %v", cmp.RevenueLossMean)
	}
	// Determinism.
	cmp2 := fold(NewWaterfallComparison(w, 5), recs).Result()
	if cmp.MedianRatio != cmp2.MedianRatio {
		t.Fatal("comparison not deterministic")
	}
}

// TestWaterfallComparisonMergeLaws: the §7.2 metric split over shards
// and merged in permuted order must equal one in-order fold, and its
// Result must not consume the state it reads.
func TestWaterfallComparisonMergeLaws(t *testing.T) {
	w, recs := waterfallCrawl(t)
	m := NewWaterfallComparison(w, 5)
	if m.Name() != "waterfall_comparison" {
		t.Errorf("Name() = %q", m.Name())
	}
	want := fold(m, recs).Result()
	if again := m.Result(); !reflect.DeepEqual(again, want) {
		t.Fatal("a second Result differs from the first")
	}
	for _, nshards := range []int{2, 3, 7} {
		rng := rand.New(rand.NewSource(int64(nshards)))
		shards := make([]Metric, nshards)
		for i := range shards {
			shards[i] = m.NewShard()
		}
		for _, r := range recs {
			shards[rng.Intn(nshards)].Add(r)
		}
		root := NewWaterfallComparison(w, 5)
		for _, i := range rng.Perm(nshards) {
			root.Merge(shards[i])
		}
		if got := root.Result(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d shards: permuted merge diverged from one fold:\ngot  %+v\nwant %+v", nshards, got, want)
		}
	}
}
