package crawler

import (
	"bytes"
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"headerbid/internal/dataset"
	"headerbid/internal/sitegen"
)

// warmHBAllocCeiling bounds the mean allocation count of a warm HB
// visit: a pooled worker revisiting HB sites whose world memos (pages,
// configs, ad-server books) are built. The protocol state of a visit
// (wrapper rounds, ecosystem streams, ad servers, requests, callbacks)
// lives in storage the worker reuses, so what is left is the bytes a
// visit produces: wire bodies, IDs, URLs and its record. The mean over
// smallWorld(600)'s HB sites reads 69.0; a worker that rebuilt its
// protocol state every visit read 176.1.
const warmHBAllocCeiling = 76

// TestWarmHBVisitAllocs holds the warm HB visit under its ceiling. The
// collector is off after one full cycle, as in TestFaultedVisitAllocParity,
// so a collection emptying the runtime's pools cannot count as visit
// allocations.
func TestWarmHBVisitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race (sync.Pool drops items)")
	}
	w := smallWorld(t, 600)
	opts := DefaultOptions(5)
	sites := w.HBSites()
	vrt := newVisitRuntime()
	for _, s := range sites {
		vrt.visit(w, s, 0, opts, nil, nil)
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	perVisit := testing.AllocsPerRun(3, func() {
		for _, s := range sites {
			vrt.visit(w, s, 1, opts, nil, nil)
		}
	}) / float64(len(sites))
	if perVisit > warmHBAllocCeiling {
		t.Fatalf("a warm HB visit allocates %.1f times on average, ceiling %d", perVisit, warmHBAllocCeiling)
	}
	t.Logf("warm HB visit: %.1f allocations (%d sites)", perVisit, len(sites))
}

// crawlBytes crawls a freshly generated world and returns its JSONL.
func crawlBytes(t *testing.T, sites int, opts Options) []byte {
	t.Helper()
	cfg := sitegen.DefaultConfig(opts.Seed)
	cfg.NumSites = sites
	w := sitegen.Generate(cfg)
	var buf bytes.Buffer
	dw := dataset.NewWriter(&buf)
	if err := CrawlStream(context.Background(), w, opts, func(v Visit) error { return dw.Write(v.Record) }); err != nil {
		t.Fatal(err)
	}
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWorldMemosSharedByWorkers: four workers start from a cold world,
// so they build its memos (pages, configs, ad-server books, partner
// exchanges) while reading them. The JSONL must equal a one-worker
// crawl of another cold world. Under -race this is the memos' race
// check; scenario's TestConcurrentVariantsShareWorldMemos has variants
// contend for the same site's entries.
func TestWorldMemosSharedByWorkers(t *testing.T) {
	opts := DefaultOptions(47)
	opts.Days = 2
	opts.Workers = 1
	want := crawlBytes(t, 300, opts)
	opts.Workers = 4
	if got := crawlBytes(t, 300, opts); !bytes.Equal(got, want) {
		t.Fatalf("four workers on a cold world wrote %d bytes, one worker %d", len(got), len(want))
	}
}
