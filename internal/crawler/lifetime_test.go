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
// configs, ad-server books) are built. Everything that dies inside the
// visit lives in storage the worker already rewinds (DESIGN.md §5.3):
// protocol state, requests and their parsed queries, event queries,
// decoded bid responses, the detector's observation. What the visit
// sends (URLs and the values written into them, bid-request IDs, the
// servers' bodies, prices and creative IDs) is written into append-only
// string chunks its pooled senders keep (urlkit.Strings); the slots
// value and the auction IDs, which depend on the page's config alone,
// are built once per config, and a hosted page's auction IDs once per
// domain for the worker's detector. The record's lists are taken from
// the worker's record store (dataset.Store). What is left is the
// record's struct and latency map, and the chunks' roll-overs. The mean
// over smallWorld(600)'s HB sites reads 2.3; it read 4.4 while each
// round and hosted page built its auction IDs, the client ad server
// built a targeting map per slot and pubfood built its round per page,
// 7.6 while each list of a record was an allocation of its own, 23.5
// while each string a visit sent was a heap object of its own, 36.9
// while a visit also built every bid body, and its uids, times and IDs
// as strings of their own, 69.0 while its scratch was allocated per
// visit, and 176.1 when every visit also rebuilt its protocol state.
const warmHBAllocCeiling = 2.6

// warmNonHBAllocCeiling bounds the mean allocation count of a warm
// non-HB visit, the crawl's common case, which sends nothing it has to
// build and emits only its record. The mean over smallWorld(600)'s
// non-HB sites reads 1.0, the record; it read 4.0 while each visit also
// allocated its result callback, the variable that callback set and
// the detector's observation.
const warmNonHBAllocCeiling = 1.1

// warmPubfoodAllocCeiling bounds the mean allocation count of a warm
// visit of a pubfood page, which runs prebid's pooled round: its record,
// as a prebid page's. The mean over smallWorld(4000)'s 21 pubfood pages
// reads 3.0, the record's struct and latency map (a map of more than
// eight partners is two objects); it read 83.4 while the library built
// its round, with its maps and closures, on every visit.
const warmPubfoodAllocCeiling = 3.1

// TestWarmHBVisitAllocs holds the warm HB visit under its ceiling.
func TestWarmHBVisitAllocs(t *testing.T) {
	w := smallWorld(t, 600)
	checkWarmVisitAllocs(t, w, w.HBSites(), "HB", warmHBAllocCeiling)
}

// TestWarmPubfoodVisitAllocs holds the warm visit of a pubfood page
// under its ceiling.
func TestWarmPubfoodVisitAllocs(t *testing.T) {
	w := smallWorld(t, 4000)
	var sites []*sitegen.Site
	for _, s := range w.HBSites() {
		if s.Library == "pubfood" {
			sites = append(sites, s)
		}
	}
	checkWarmVisitAllocs(t, w, sites, "pubfood", warmPubfoodAllocCeiling)
}

// TestWarmNonHBVisitAllocs holds the warm non-HB visit under its
// ceiling.
func TestWarmNonHBVisitAllocs(t *testing.T) {
	w := smallWorld(t, 600)
	var sites []*sitegen.Site
	for _, s := range w.Sites {
		if !s.HB {
			sites = append(sites, s)
		}
	}
	checkWarmVisitAllocs(t, w, sites, "non-HB", warmNonHBAllocCeiling)
}

// checkWarmVisitAllocs visits sites once to warm the world and the
// pooled worker, then fails if revisiting them allocates more than
// ceiling times per visit on average. The collector is off after one
// full cycle, as in TestFaultedVisitAllocParity, so a collection
// emptying the runtime's pools cannot count as visit allocations.
func checkWarmVisitAllocs(t *testing.T, w *sitegen.World, sites []*sitegen.Site, kind string, ceiling float64) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race (sync.Pool drops items)")
	}
	if len(sites) == 0 {
		t.Fatalf("no %s site in the world", kind)
	}
	opts := DefaultOptions(5)
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
	if perVisit > ceiling {
		t.Fatalf("a warm %s visit allocates %.1f times on average, ceiling %g", kind, perVisit, ceiling)
	}
	t.Logf("warm %s visit: %.1f allocations (%d sites)", kind, perVisit, len(sites))
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
