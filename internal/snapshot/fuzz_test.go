package snapshot_test

import (
	"bytes"
	"io"
	"testing"

	"headerbid/internal/crawler"
	"headerbid/internal/report"
	"headerbid/internal/sitegen"
	"headerbid/internal/snapshot"
)

// FuzzUnmarshalShard holds the shard-file decoder to its contract on
// arbitrary bytes: UnmarshalShard never panics, any file it accepts
// renders (every metric's Snapshot, and the figure report's Render, as
// hbmerge does) without panicking or hanging, and it re-marshals to
// bytes that unmarshal and marshal again to themselves — a byte fixed
// point, which is what lets hbmerge re-marshal partial folds. Seed
// corpus: fuzzSeeds below plus the committed files under
// testdata/fuzz/. CI runs the target briefly via `make fuzz-smoke`.
func FuzzUnmarshalShard(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, file []byte) {
		h, ms, err := snapshot.UnmarshalShard(bytes.NewReader(file))
		if err != nil {
			return
		}
		for _, m := range ms {
			m.Snapshot()
			if fr, ok := m.(*report.Figures); ok {
				fr.Render(io.Discard)
			}
		}
		once := shardFileBytes(t, h, ms)
		h2, ms2, err := snapshot.UnmarshalShard(bytes.NewReader(once))
		if err != nil {
			t.Fatalf("re-marshaled file rejected: %v", err)
		}
		if twice := shardFileBytes(t, h2, ms2); !bytes.Equal(twice, once) {
			t.Fatalf("marshal → unmarshal → marshal not a fixed point (%d vs %d bytes)", len(twice), len(once))
		}
	})
}

// fuzzSeeds returns real shard files — every registered metric folded
// over a small two-day crawl, the same metrics empty, and a two-metric
// file — plus truncations and header edits of the two-metric file.
func fuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	cfg := sitegen.DefaultConfig(5)
	cfg.NumSites = 40
	opts := crawler.DefaultOptions(5)
	opts.Days = 2
	recs := crawler.CrawlWorld(sitegen.Generate(cfg), opts)

	file := func(h snapshot.Header, names []string, fed bool) []byte {
		ms := make([]snapshot.Codec, 0, len(names))
		for _, name := range names {
			m, _ := snapshot.New(name)
			if fed {
				for _, r := range recs {
					m.Add(r)
				}
			}
			ms = append(ms, m)
		}
		return shardFileBytes(tb, h, ms)
	}
	h := snapshot.Header{Seed: 5, ShardCount: 3, Shards: []int{1}}
	small := file(h, []string{"summary", "traffic"}, true)
	seeds := [][]byte{
		file(h, snapshot.Names(), true),
		file(snapshot.Header{Seed: 5, ShardCount: 2, Shards: []int{0, 1}}, snapshot.Names(), false),
		small,
	}
	for _, cut := range []int{8, 12, len(small) / 2, len(small) - 1} {
		seeds = append(seeds, small[:cut])
	}
	// Header edits. After the 8-byte magic come one-byte uvarints:
	// version, seed (zigzag), shard count, covered count, the covered
	// index and the section count; then the first section's name.
	edit := func(i int, b byte) []byte {
		e := bytes.Clone(small)
		e[i] = b
		return e
	}
	seeds = append(seeds,
		edit(8, snapshot.FormatVersion+1), // unknown format version
		edit(10, 0),                       // shard count 0
		edit(11, 0),                       // no covered shards
		edit(12, 3),                       // covered index equal to the shard count
		edit(13, 3),                       // three sections, two present
		edit(15, 'S'),                     // "Summary": not a registered name
	)
	return seeds
}
