package analysis

import (
	"reflect"
	"testing"

	"headerbid/internal/crawler"
	"headerbid/internal/dataset"
	"headerbid/internal/sitegen"
)

// TestLatencyAccumulatorMatchesBatch feeds a real crawl round-robin into
// four shards and requires the merged result to be deep-equal to one
// in-order fold — markers, sample count and the full ECDF.
func TestLatencyAccumulatorMatchesBatch(t *testing.T) {
	cfg := sitegen.DefaultConfig(17)
	cfg.NumSites = 400
	w := sitegen.Generate(cfg)
	recs := crawler.CrawlWorld(w, crawler.DefaultOptions(17))

	acc := NewLatencyAccumulator()
	shards := []Metric{acc.NewShard(), acc.NewShard(), acc.NewShard(), acc.NewShard()}
	for i, r := range recs {
		shards[i%len(shards)].Add(r)
	}
	for i := len(shards) - 1; i >= 0; i-- {
		acc.Merge(shards[i])
	}
	got, want := acc.Result(), fold(NewLatencyAccumulator(), recs).Result()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sharded CDF diverged:\n got %+v\nwant %+v", got, want)
	}
	if got.Sites == 0 {
		t.Fatal("no latency samples in a 400-site crawl")
	}
}

// TestLatencyAccumulatorFilters: non-HB and zero-latency records must not
// contribute samples.
func TestLatencyAccumulatorFilters(t *testing.T) {
	acc := NewLatencyAccumulator()
	acc.Add(&dataset.SiteRecord{Domain: "a", HB: false, TotalHBLatencyMS: 500})
	acc.Add(&dataset.SiteRecord{Domain: "b", HB: true, TotalHBLatencyMS: 0})
	if n := acc.Result().Sites; n != 0 {
		t.Fatalf("samples = %d, want 0", n)
	}
	acc.Add(&dataset.SiteRecord{Domain: "c", HB: true, TotalHBLatencyMS: 750})
	res := acc.Result()
	if res.Sites != 1 || res.MedianMS != 750 {
		t.Fatalf("result = %+v", res)
	}
}
