package crawler

import (
	"context"
	"runtime"
	"testing"

	"headerbid/internal/sitegen"
)

// Fresh worlds crawled one after another in one process leave nothing
// behind: every rendered page and decoded page config lives exactly as
// long as its world. Process-global parse caches used to keep every
// earlier world's pages alive, and the live heap grew by more than 2 MB
// per 3,000-site world.
func TestFreshWorldsLeaveNoHeap(t *testing.T) {
	var first uint64
	for i := int64(0); i < 5; i++ {
		crawlFreshWorld(t, 300+i)
		live := liveHeap()
		t.Logf("live heap after world %d: %.2f MB", i+1, float64(live)/(1<<20))
		if i == 0 {
			first = live
			continue
		}
		if diff := int64(live) - int64(first); diff > 1<<20 || diff < -1<<20 {
			t.Fatalf("live heap after world %d is %.2f MB, %.2f MB from the first world's %.2f MB (bound 1 MB)",
				i+1, float64(live)/(1<<20), float64(diff)/(1<<20), float64(first)/(1<<20))
		}
	}
}

// crawlFreshWorld generates a 3,000-site world and crawls it for two
// days on one worker, dropping every record.
func crawlFreshWorld(t *testing.T, seed int64) {
	t.Helper()
	cfg := sitegen.DefaultConfig(seed)
	cfg.NumSites = 3000
	opts := DefaultOptions(seed)
	opts.Workers = 1
	opts.Days = 2
	visits := 0
	err := CrawlStream(context.Background(), sitegen.Generate(cfg), opts, func(Visit) error {
		visits++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if visits <= cfg.NumSites {
		t.Fatalf("world %d: %d visits; day 1 revisited no HB site", seed, visits)
	}
}

// liveHeap returns the bytes of live heap objects after two full
// collections (the second frees what the first's finalizers and pool
// clearing released).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
