package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"headerbid/internal/crawler"
	"headerbid/internal/dataset"
	"headerbid/internal/sitegen"
)

// crawlJSONL runs a plain (sweep-free) crawl and returns the dataset
// bytes — the reference the sweep's base variant must reproduce.
func crawlJSONL(t *testing.T, w *sitegen.World, opts crawler.Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	dw := dataset.NewWriter(&buf)
	err := crawler.CrawlStream(context.Background(), w, opts, func(v crawler.Visit) error {
		return dw.Write(v.Record)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sweepVariantJSONL runs a sweep and captures one variant's dataset
// bytes off the sweep-aware emit stream.
func sweepVariantJSONL(t *testing.T, sw *Sweep, variant string) []byte {
	t.Helper()
	var buf bytes.Buffer
	dw := dataset.NewWriter(&buf)
	sw.Emit = func(axis, name string, v crawler.Visit) error {
		if name == variant {
			return dw.Write(v.Record)
		}
		return nil
	}
	if _, err := sw.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The base variant of a sweep is byte-identical to a plain crawl with
// the same world and seed, even while other variants (with aggressive
// overlays) crawl the same world concurrently.
func TestSweepBaselineByteIdenticalToPlainCrawl(t *testing.T) {
	w := testWorld(t, 400, 11)
	opts := crawler.DefaultOptions(11)

	want := crawlJSONL(t, w, opts)

	sw := &Sweep{
		World:       w,
		Opts:        opts,
		Axes:        []Axis{TimeoutAxis(500), PartnerAxis(1), SyncAxis()},
		Concurrency: 4, // force variant overlap with the baseline
	}
	got := sweepVariantJSONL(t, sw, BaselineName)
	if !bytes.Equal(got, want) {
		t.Fatalf("sweep baseline dataset differs from plain crawl (%d vs %d bytes)", len(got), len(want))
	}
}

// siteFingerprint deep-copies the overlay-sensitive fields of a site:
// anything an intervention could plausibly corrupt if it wrote through
// to the shared world.
type siteFingerprint struct {
	TimeoutMS   int
	BadWrapper  bool
	Partners    []string
	UnitBidders [][]string
}

func fingerprintWorld(w *sitegen.World) []siteFingerprint {
	out := make([]siteFingerprint, len(w.Sites))
	for i, s := range w.Sites {
		fp := siteFingerprint{
			TimeoutMS:  s.TimeoutMS,
			BadWrapper: s.BadWrapper,
			Partners:   append([]string(nil), s.Partners...),
		}
		for _, u := range s.AdUnits {
			fp.UnitBidders = append(fp.UnitBidders, append([]string(nil), u.Bidders...))
		}
		out[i] = fp
	}
	return out
}

// Overlays provably never mutate the shared world: concurrent variants
// under every intervention kind leave the world's generation state
// untouched, and a baseline crawl rerun *after* the sweep still
// reproduces the pre-sweep bytes (so no hidden cache poisoning either).
func TestOverlaysNeverMutateSharedWorld(t *testing.T) {
	w := testWorld(t, 400, 11)
	opts := crawler.DefaultOptions(11)

	before := fingerprintWorld(w)
	wantJSONL := crawlJSONL(t, w, opts)

	fiber := NetworkAxis()
	sw := &Sweep{
		World:       w,
		Opts:        opts,
		Axes:        []Axis{TimeoutAxis(500, 8000), PartnerAxis(1, 3), fiber, SyncAxis(), WrapperAxis()},
		Concurrency: 4,
	}
	if _, err := sw.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	after := fingerprintWorld(w)
	if !reflect.DeepEqual(before, after) {
		t.Fatal("sweep mutated the shared world's generation state")
	}
	if got := crawlJSONL(t, w, opts); !bytes.Equal(got, wantJSONL) {
		t.Fatal("baseline crawl after the sweep no longer reproduces pre-sweep bytes")
	}
}

// The rendered comparison is deterministic in (world seed, crawl seed,
// axes): independent of crawl worker count and of variant scheduling.
func TestComparisonDeterministicAcrossWorkers(t *testing.T) {
	renderWith := func(workers, conc int) []byte {
		w := testWorld(t, 400, 11)
		opts := crawler.DefaultOptions(11)
		opts.Workers = workers
		sw := &Sweep{
			World:       w,
			Opts:        opts,
			Axes:        []Axis{TimeoutAxis(500, 3000), PartnerAxis(1), SyncAxis()},
			Concurrency: conc,
		}
		cmp, err := sw.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		cmp.Render(&buf)
		return buf.Bytes()
	}

	serial := renderWith(1, 1)
	parallel := renderWith(runtime.NumCPU(), 3)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("comparison render differs across worker counts:\n--- workers=1 ---\n%s\n--- workers=NumCPU ---\n%s",
			serial, parallel)
	}
	if len(serial) == 0 {
		t.Fatal("empty render")
	}
}

// sweepDatasets runs a sweep and returns every variant's dataset bytes,
// keyed by variant name. Variants emit from their own goroutines.
func sweepDatasets(t *testing.T, sw *Sweep) map[string][]byte {
	t.Helper()
	var mu sync.Mutex
	bufs := map[string]*bytes.Buffer{}
	sw.Emit = func(axis, name string, v crawler.Visit) error {
		line, err := json.Marshal(v.Record)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		if bufs[name] == nil {
			bufs[name] = new(bytes.Buffer)
		}
		bufs[name].Write(line)
		bufs[name].WriteByte('\n')
		return nil
	}
	if _, err := sw.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(bufs))
	for name, b := range bufs {
		out[name] = b.Bytes()
	}
	return out
}

// TestConcurrentVariantsShareWorldMemos: four variants, four workers
// each, crawl one cold world at once, so they build and read the same
// sites' memos (pages, configs, ad-server books) concurrently. Each
// variant's dataset must equal the same variant swept one at a time on
// one worker over another cold world. Under -race this is the check
// that the world memos are safe for concurrent variants.
func TestConcurrentVariantsShareWorldMemos(t *testing.T) {
	const sites, seed = 300, 29
	sweep := func(concurrency, workers int) map[string][]byte {
		opts := crawler.DefaultOptions(seed)
		opts.Days = 2
		opts.Workers = workers
		return sweepDatasets(t, &Sweep{
			World:       testWorld(t, sites, seed),
			Opts:        opts,
			Axes:        []Axis{TimeoutAxis(500), FaultAxis(0.5), SyncAxis()},
			Concurrency: concurrency,
		})
	}
	want, got := sweep(1, 1), sweep(4, 4)
	if len(want) != 4 {
		t.Fatalf("sweep ran %d variants, want 4", len(want))
	}
	for name, w := range want {
		if !bytes.Equal(got[name], w) {
			t.Errorf("variant %s: concurrent sweep wrote %d bytes, sequential %d", name, len(got[name]), len(w))
		}
	}
}
