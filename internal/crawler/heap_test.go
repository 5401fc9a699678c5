package crawler

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"slices"
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

// TestHeldVisitRecordsRetainOnlyThemselves: a single visit's record
// (VisitSimulated, the facade's VisitSite) keeps alive only its own
// bytes. Its visit's store is new, and a store's first chunk of each
// element type is sized to its first take, so each chunk the record's
// lists sit in holds them alone. The record of every HB site is held
// after the visits and their world are gone, and must take no more live
// heap (5% slack) than the same records with their lists copied into
// allocations of their own (ownCopy). Chunks of a fixed 16 KB would keep
// about 60 KB alive per record.
func TestHeldVisitRecordsRetainOnlyThemselves(t *testing.T) {
	held, own, recs := retained(t, func() []*dataset.SiteRecord {
		w := smallWorld(t, 600)
		var recs []*dataset.SiteRecord
		for _, s := range w.HBSites() {
			recs = append(recs, VisitSimulated(w, s, 1, DefaultOptions(23)))
		}
		return recs
	})
	t.Logf("%d visit records: %.1f kB held, %.1f kB their own", len(recs), float64(held)/1e3, float64(own)/1e3)
	if float64(held) > 1.05*float64(own) {
		t.Fatalf("%d held visit records keep %.1f kB alive, their own bytes %.1f kB", len(recs), float64(held)/1e3, float64(own)/1e3)
	}
}

// TestSampledRecordsRetainAtMostTheirChunks: a record a consumer keeps
// out of a crawl keeps alive, beyond its own bytes, at most the chunks
// its lists sit in, one per element type it has (DESIGN.md §5.3): up
// to four chunks of at most 16 KB. One record in 100 of a five-day
// crawl is held after the crawl and its world are gone.
func TestSampledRecordsRetainAtMostTheirChunks(t *testing.T) {
	const chunkCap = 16 << 10 // the size cap of a dataset.Store chunk
	held, own, recs := retained(t, func() []*dataset.SiteRecord {
		opts := DefaultOptions(23)
		opts.Workers = 1
		opts.Days = 5
		var recs []*dataset.SiteRecord
		visits := 0
		if err := CrawlStream(context.Background(), smallWorld(t, 600), opts, func(v Visit) error {
			if visits++; visits%100 == 0 {
				recs = append(recs, v.Record)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return recs
	})
	kinds := 0
	for _, r := range recs {
		if len(r.Libraries)+len(r.Partners)+len(r.Winners) > 0 {
			kinds++
		}
		if len(r.Auctions) > 0 {
			kinds++
		}
		if slices.ContainsFunc(r.Auctions, func(a dataset.AuctionRecord) bool { return len(a.Bids) > 0 }) {
			kinds++
		}
		if len(r.PartnerLatencyMS) > 0 {
			kinds++
		}
	}
	bound := own + int64(kinds)*chunkCap
	t.Logf("%d of a crawl's records, %d list kinds: %.1f kB held, %.1f kB their own, bound %.1f kB",
		len(recs), kinds, float64(held)/1e3, float64(own)/1e3, float64(bound)/1e3)
	if kinds == 0 {
		t.Fatal("no held record has a list")
	}
	if held > bound {
		t.Fatalf("%d held records keep %.1f kB alive, above their own %.1f kB and a %d kB chunk for each of their %d list kinds",
			len(recs), float64(held)/1e3, float64(own)/1e3, chunkCap>>10, kinds)
	}
}

// retained returns the live heap that the records produce returns take
// once everything else produce made is gone, and the live heap the same
// records take with their lists moved into allocations of their own
// (ownCopy), which it returns.
func retained(t *testing.T, produce func() []*dataset.SiteRecord) (held, own int64, recs []*dataset.SiteRecord) {
	t.Helper()
	base := liveHeap()
	recs = produce()
	held = int64(liveHeap()) - int64(base)
	for i, r := range recs {
		recs[i] = ownCopy(r)
	}
	own = int64(liveHeap()) - int64(base)
	return held, own, recs
}

// ownCopy copies r with its lists in allocations of their own, one per
// element type as a store takes them (its libraries, partners and
// winners side by side, its auctions, all of its bids, all of its
// latencies): the bytes the record is made of. Strings and the
// partner_errors map are shared.
func ownCopy(r *dataset.SiteRecord) *dataset.SiteRecord {
	c := *r
	if n := len(r.Libraries) + len(r.Partners) + len(r.Winners); n > 0 {
		names := make([]string, 0, n)
		names, c.Libraries = appendOwn(names, r.Libraries)
		names, c.Partners = appendOwn(names, r.Partners)
		_, c.Winners = appendOwn(names, r.Winners)
	}
	if len(r.Auctions) > 0 {
		c.Auctions = slices.Clone(r.Auctions)
		nBids := 0
		for _, a := range r.Auctions {
			nBids += len(a.Bids)
		}
		bids := make([]dataset.BidRecord, 0, nBids)
		for i, a := range r.Auctions {
			bids, c.Auctions[i].Bids = appendOwn(bids, a.Bids)
		}
	}
	if r.PartnerLatencyMS != nil {
		n := 0
		for _, v := range r.PartnerLatencyMS {
			n += len(v)
		}
		vals := make([]float64, 0, n)
		c.PartnerLatencyMS = make(map[string][]float64, len(r.PartnerLatencyMS))
		for k, v := range r.PartnerLatencyMS {
			vals, c.PartnerLatencyMS[k] = appendOwn(vals, v)
		}
	}
	return &c
}

// appendOwn appends src to dst, which has room for it, and returns dst
// and the copy, a full slice of it (nil for a nil src).
func appendOwn[T any](dst, src []T) ([]T, []T) {
	if src == nil {
		return dst, nil
	}
	lo := len(dst)
	dst = append(dst, src...)
	return dst, dst[lo:len(dst):len(dst)]
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
