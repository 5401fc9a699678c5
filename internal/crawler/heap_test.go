package crawler

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"headerbid/internal/dataset"
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

// TestHeldRecordsRetainOnlyThemselves: a record keeps alive no more
// than its own bytes. Every record of a three-day crawl is held after
// the crawl and its world are gone, and must take no more live heap
// (5% slack) than the same records copied through the JSONL round
// trip, which owns every string it decodes. A record that pointed into
// what a visit sent, such as an ad-server body or a sender's string
// chunk (urlkit.Strings), would keep that storage alive with it.
func TestHeldRecordsRetainOnlyThemselves(t *testing.T) {
	base := liveHeap()
	heldBytes, text, n := heldRecords(t, base)
	var copies []*dataset.SiteRecord
	if err := dataset.ReadStream(bytes.NewReader(text), func(rec *dataset.SiteRecord) error {
		copies = append(copies, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	copyBytes := int64(liveHeap()) - int64(base)
	if len(copies) != n {
		t.Fatalf("%d records read back, %d written", len(copies), n)
	}
	t.Logf("%d records: %.1f kB held, %.1f kB copied", n, float64(heldBytes)/1e3, float64(copyBytes)/1e3)
	if float64(heldBytes) > 1.05*float64(copyBytes) {
		t.Fatalf("%d held records keep %.1f kB alive, their copies %.1f kB: the records retain more than themselves",
			n, float64(heldBytes)/1e3, float64(copyBytes)/1e3)
	}
}

// heldRecords crawls a 600-site world for three days on one worker and
// returns the live heap above base that every record of the crawl
// takes, held once the crawl and its world are gone, with the records'
// JSONL and their count.
func heldRecords(t *testing.T, base uint64) (int64, []byte, int) {
	t.Helper()
	opts := DefaultOptions(23)
	opts.Workers = 1
	opts.Days = 3
	var held []*dataset.SiteRecord
	if err := CrawlStream(context.Background(), smallWorld(t, 600), opts, func(v Visit) error {
		held = append(held, v.Record)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	live := int64(liveHeap()) - int64(base)
	var text bytes.Buffer
	dw := dataset.NewWriter(&text)
	for _, rec := range held {
		if err := dw.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
	return live, text.Bytes(), len(held)
}

// TestRecordsKeepRegistryPartnerNames: the winners of a server-side or
// hybrid record, and its server-side bids, name their partners with the
// registry's own strings. The detector mines those names out of the
// creative URLs of an ad-server body, and a record holding one of them
// as it was mined would keep the whole body alive.
func TestRecordsKeepRegistryPartnerNames(t *testing.T) {
	w := smallWorld(t, 600)
	opts := DefaultOptions(23)
	opts.Workers = 1
	opts.Days = 2
	checked := map[string]int{}
	err := CrawlStream(context.Background(), w, opts, func(v Visit) error {
		rec := v.Record
		if rec.Facet != "server" && rec.Facet != "hybrid" {
			return nil
		}
		check := func(what, name string) error {
			if p, ok := w.Registry.BySlug(name); !ok || unsafe.StringData(p.Slug) != unsafe.StringData(name) {
				return fmt.Errorf("%s, day %d: %s %s record names %q with a string that is not the registry's", rec.Domain, rec.VisitDay, rec.Facet, what, name)
			}
			checked[rec.Facet+" "+what]++
			return nil
		}
		for _, name := range rec.Winners {
			if err := check("winner", name); err != nil {
				return err
			}
		}
		for _, a := range rec.Auctions {
			for _, b := range a.Bids {
				if b.Source != "s2s" {
					continue
				}
				if err := check("s2s bid", b.Bidder); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"server winner", "server s2s bid", "hybrid winner", "hybrid s2s bid"} {
		if checked[k] == 0 {
			t.Errorf("no %s among the records", k)
		}
	}
}
