package report

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"headerbid/internal/crawler"
	"headerbid/internal/dataset"
	"headerbid/internal/partners"
	"headerbid/internal/sitegen"
)

// goldenRecords reproduces the crawl the committed golden report was
// rendered from: 600 sites, seed 1, two crawl days (the defaults of the
// Experiment that generated testdata/full_report_600x2_seed1.golden on
// the pre-metrics batch pipeline).
func goldenRecords(t *testing.T) []*dataset.SiteRecord {
	t.Helper()
	cfg := sitegen.DefaultConfig(1)
	cfg.NumSites = 600
	w := sitegen.Generate(cfg)
	opts := crawler.DefaultOptions(1)
	opts.Days = 2
	return crawler.CrawlWorld(w, opts)
}

func readGolden(t *testing.T) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "full_report_600x2_seed1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFullReportMatchesPreRedesignGolden pins the streaming figure
// report to the report the pre-metrics batch pipeline produced: every
// ported analysis must be result-identical to its batch ancestor, and
// the rendered bytes prove it for all 21 sections at once.
func TestFullReportMatchesPreRedesignGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full 600x2 crawl")
	}
	recs := goldenRecords(t)
	golden := readGolden(t)

	var stream bytes.Buffer
	fold(NewFigures(partners.Default()), recs).Render(&stream)
	if !bytes.Equal(stream.Bytes(), golden) {
		t.Errorf("streamed Figures output diverged from pre-redesign golden (len %d vs %d)",
			stream.Len(), len(golden))
	}
}

// TestShardedFiguresMatchGolden splits the record stream across shards
// (round-robin, as a worker pool would) and merges them, requiring the
// rendered report to stay byte-identical to the golden for several shard
// counts and merge orders.
func TestShardedFiguresMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full 600x2 crawl")
	}
	recs := goldenRecords(t)
	golden := readGolden(t)

	for _, shards := range []int{2, 3, 8} {
		root := NewFigures(partners.Default())
		parts := make([]*Figures, shards)
		for i := range parts {
			parts[i] = root.NewShard().(*Figures)
		}
		for i, r := range recs {
			parts[i%shards].Add(r)
		}
		// Merge back-to-front to exercise a non-stream merge order.
		for i := len(parts) - 1; i >= 0; i-- {
			root.Merge(parts[i])
		}
		var buf bytes.Buffer
		root.Render(&buf)
		if !bytes.Equal(buf.Bytes(), golden) {
			t.Errorf("sharded (%d) Figures output diverged from golden", shards)
		}
	}
}
