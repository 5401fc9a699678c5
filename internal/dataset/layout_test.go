package dataset_test

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"headerbid/internal/crawler"
	"headerbid/internal/dataset"
	"headerbid/internal/sitegen"
)

// TestRecordLayout holds both producers of records to the layout of
// DESIGN.md §5.3, over enough records that every chunk kind rolls over:
// a three-day one-worker crawl, whose worker takes every record's lists
// from one store, and the ReadStream of its JSONL, whose decoder does.
// Every list of every record is a full slice (cap == len), no two lists
// share storage, and appending to a list leaves every record as it was.
// Each streamed record equals encoding/json's decode of its line.
func TestRecordLayout(t *testing.T) {
	cfg := sitegen.DefaultConfig(42)
	cfg.NumSites = 2000
	opts := crawler.DefaultOptions(23)
	opts.Workers = 1
	opts.Days = 3
	var crawled []*dataset.SiteRecord
	if err := crawler.CrawlStream(context.Background(), sitegen.Generate(cfg), opts, func(v crawler.Visit) error {
		crawled = append(crawled, v.Record)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	text := bytes.Join(writeLines(t, crawled...), []byte("\n"))
	checkLayout(t, "crawled", crawled, text)

	var streamed []*dataset.SiteRecord
	if err := dataset.ReadStream(bytes.NewReader(text), func(r *dataset.SiteRecord) error {
		streamed = append(streamed, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, line := range bytes.Split(text, []byte("\n")) {
		var want dataset.SiteRecord
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*streamed[i], want) {
			t.Fatalf("record %d diverged from encoding/json:\ngot  %#v\njson %#v", i+1, *streamed[i], want)
		}
	}
	checkLayout(t, "streamed", streamed, text)
}

// span is where one list of a record sits in memory.
type span struct {
	what       string
	start, end uintptr
}

// checkLayout checks recs, whose JSONL is text, and that their lists
// of each element type take more than a full chunk, so that they span
// roll-overs and a layout fault at one would show.
func checkLayout(t *testing.T, producer string, recs []*dataset.SiteRecord, text []byte) {
	t.Helper()
	var spans []span
	bytesOf := map[string]uintptr{}
	add := func(rec int, kind string, ptr unsafe.Pointer, n, c int, size uintptr) {
		if n != c {
			t.Fatalf("%s record %d: its %s list of %d has capacity %d, not a full slice", producer, rec, kind, n, c)
		}
		if n == 0 {
			return
		}
		s := span{what: kind, start: uintptr(ptr), end: uintptr(ptr) + uintptr(n)*size}
		spans = append(spans, s)
		bytesOf[kind] += s.end - s.start
	}
	for i, r := range recs {
		for _, l := range [][]string{r.Libraries, r.Partners, r.Winners} {
			add(i, "name", unsafe.Pointer(unsafe.SliceData(l)), len(l), cap(l), unsafe.Sizeof(""))
		}
		add(i, "auction", unsafe.Pointer(unsafe.SliceData(r.Auctions)), len(r.Auctions), cap(r.Auctions), unsafe.Sizeof(dataset.AuctionRecord{}))
		for _, a := range r.Auctions {
			add(i, "bid", unsafe.Pointer(unsafe.SliceData(a.Bids)), len(a.Bids), cap(a.Bids), unsafe.Sizeof(dataset.BidRecord{}))
		}
		for _, v := range r.PartnerLatencyMS {
			add(i, "latency", unsafe.Pointer(unsafe.SliceData(v)), len(v), cap(v), unsafe.Sizeof(0.0))
		}
	}
	for _, kind := range []string{"name", "auction", "bid", "latency"} {
		if bytesOf[kind] <= dataset.ChunkBytes {
			t.Fatalf("%s records: %s lists take %d bytes, within one chunk of %d: no roll-over is checked", producer, kind, bytesOf[kind], dataset.ChunkBytes)
		}
	}
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.start, b.start) })
	for i := 1; i < len(spans); i++ {
		if spans[i].start < spans[i-1].end {
			t.Fatalf("%s records: two lists share storage (%s, %s)", producer, spans[i-1].what, spans[i].what)
		}
	}

	for _, r := range recs {
		bumpLists(r)
	}
	if got := bytes.Join(writeLines(t, recs...), []byte("\n")); !bytes.Equal(got, text) {
		t.Fatalf("%s records changed when their lists were appended to", producer)
	}
}

// bumpLists appends to every list of r and overwrites the first element
// of each result, which must be a copy.
func bumpLists(r *dataset.SiteRecord) {
	for _, l := range [][]string{r.Libraries, r.Partners, r.Winners} {
		append(l, "appended")[0] = "overwritten"
	}
	append(r.Auctions, dataset.AuctionRecord{})[0].ID = "overwritten"
	for _, a := range r.Auctions {
		append(a.Bids, dataset.BidRecord{})[0].Bidder = "overwritten"
	}
	for _, v := range r.PartnerLatencyMS {
		append(v, 1)[0] = -1
	}
}
