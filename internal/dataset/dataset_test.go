package dataset

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"headerbid/internal/core"
	"headerbid/internal/hb"
)

func sampleRecords() []*SiteRecord {
	return []*SiteRecord{
		{
			Domain: "a.example", Rank: 1, VisitDay: 0, HB: true, Facet: "hybrid",
			Partners: []string{"dfp", "appnexus"},
			Winners:  []string{"appnexus"},
			Auctions: []AuctionRecord{
				{ID: "a1", AdUnit: "u1", Size: "300x250",
					Bids:   []BidRecord{{Bidder: "appnexus", CPM: 0.4}, {Bidder: "rubicon", CPM: 0.1, Late: true}},
					Winner: "appnexus", WinnerCPM: 0.4, Rendered: true},
			},
			TotalHBLatencyMS: 640,
			AdSlotsAuctioned: 1,
			Loaded:           true,
		},
		{
			Domain: "b.example", Rank: 2, VisitDay: 0, HB: false, Loaded: true,
		},
		{
			Domain: "a.example", Rank: 1, VisitDay: 1, HB: true, Facet: "hybrid",
			Partners: []string{"dfp", "appnexus"},
			Auctions: []AuctionRecord{{ID: "a2", AdUnit: "u1"}},
			Loaded:   true,
		},
	}
}

// readAll decodes a whole JSONL stream through ReadStream.
func readAll(r io.Reader) ([]*SiteRecord, error) {
	var out []*SiteRecord
	err := ReadStream(r, func(rec *SiteRecord) error {
		out = append(out, rec)
		return nil
	})
	return out, err
}

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range sampleRecords() {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 3 {
		t.Fatalf("count = %d", w.Count())
	}
	back, err := readAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 {
		t.Fatalf("read %d records", len(back))
	}
	if back[0].Domain != "a.example" || len(back[0].Auctions) != 1 ||
		len(back[0].Auctions[0].Bids) != 2 || !back[0].Auctions[0].Bids[1].Late {
		t.Fatalf("record mangled: %+v", back[0])
	}
}

func TestFileWriterAndReader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crawl.jsonl")
	w, err := NewFileWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sampleRecords() {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back, err := readAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 {
		t.Fatalf("read %d", len(back))
	}
}

func TestReadSkipsBlankRejectsGarbage(t *testing.T) {
	ok := "{\"domain\":\"x.example\",\"rank\":1,\"visit_day\":0,\"hb\":false,\"loaded\":true}\n\n"
	recs, err := readAll(strings.NewReader(ok))
	if err != nil || len(recs) != 1 {
		t.Fatalf("recs=%d err=%v", len(recs), err)
	}
	if _, err := readAll(strings.NewReader("not json\n")); err == nil {
		t.Fatal("garbage line accepted")
	}
}

func TestFromObservation(t *testing.T) {
	o := &core.Observation{
		URL:          "https://www.site.example/",
		Domain:       "site.example",
		HB:           true,
		Facet:        hb.FacetClient,
		PartnersSeen: []string{"criteo"},
		Auctions: []core.AuctionObs{
			{
				ID: "a1", AdUnit: "u1", Size: hb.SizeMediumRectangle,
				Start: time.Unix(0, 0), End: time.Unix(0, int64(420*time.Millisecond)),
				Bids: []core.BidObs{{
					Bidder: "criteo", CPM: 0.25, Size: hb.SizeMediumRectangle,
					Latency: 200 * time.Millisecond, Source: "client",
				}},
				Rendered: true,
			},
		},
		TotalHBLatency:   700 * time.Millisecond,
		PartnerLatency:   map[string][]time.Duration{"criteo": {200 * time.Millisecond}},
		AdSlotsAuctioned: 1,
	}
	o.Auctions[0].Winner = &o.Auctions[0].Bids[0]
	rec := new(Store).FromObservation(o, 42, 3, true, false, "")
	if rec.Rank != 42 || rec.VisitDay != 3 || !rec.HB || rec.Facet != "client" {
		t.Fatalf("rec = %+v", rec)
	}
	if rec.TotalHBLatencyMS != 700 {
		t.Fatalf("latency = %v", rec.TotalHBLatencyMS)
	}
	a := rec.Auctions[0]
	if a.DurationMS != 420 || a.Winner != "criteo" || a.WinnerCPM != 0.25 {
		t.Fatalf("auction = %+v", a)
	}
	if a.Bids[0].LatencyMS != 200 || a.Bids[0].Size != "300x250" {
		t.Fatalf("bid = %+v", a.Bids[0])
	}
	if rec.PartnerLatencyMS["criteo"][0] != 200 {
		t.Fatalf("partner latency = %v", rec.PartnerLatencyMS)
	}
	if rec.FacetValue() != hb.FacetClient {
		t.Fatalf("facet value = %v", rec.FacetValue())
	}
}

func TestFromObservationNonHB(t *testing.T) {
	o := &core.Observation{Domain: "plain.example"}
	rec := new(Store).FromObservation(o, 1, 0, true, false, "")
	if rec.HB || rec.Facet != "" {
		t.Fatalf("non-HB rec = %+v", rec)
	}
}

func TestLargeRecordRoundTrip(t *testing.T) {
	// A record bigger than the default bufio scanner token must load.
	rec := &SiteRecord{Domain: "big.example", Loaded: true, HB: true, Facet: "client"}
	for i := 0; i < 5000; i++ {
		rec.Auctions = append(rec.Auctions, AuctionRecord{
			ID: "a", AdUnit: "u", Bids: []BidRecord{{Bidder: "x", CPM: 1}},
		})
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(rec); err != nil {
		t.Fatal(err)
	}
	w.Close()
	back, err := readAll(&buf)
	if err != nil || len(back) != 1 || len(back[0].Auctions) != 5000 {
		t.Fatalf("large record: n=%d err=%v", len(back), err)
	}
}

// TestReadStreamLineCap: the scanner's buffer starts at 64 KB and grows
// for a longer line, up to maxLine; a longer line fails the read with
// the scanner's error.
func TestReadStreamLineCap(t *testing.T) {
	long := strings.Repeat("e", 200<<10)
	line := `{"domain":"long.example","rank":1,"visit_day":0,"hb":false,"loaded":true,"err":"` + long + "\"}\n"
	recs, err := readAll(strings.NewReader(line))
	if err != nil || len(recs) != 1 || recs[0].Err != long {
		t.Fatalf("a %d kB line: %d records, err %v", len(line)>>10, len(recs), err)
	}
	over := io.MultiReader(strings.NewReader(`{"err":"`), io.LimitReader(repeatByte('e'), maxLine))
	if _, err := readAll(over); err == nil || err.Error() != "dataset: bufio.Scanner: token too long" {
		t.Fatalf("a line over %d MB: err %v, want dataset: bufio.Scanner: token too long", maxLine>>20, err)
	}
}

// repeatByte reads as an endless run of one byte.
type repeatByte byte

func (b repeatByte) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

func TestReadStreamMatchesRead(t *testing.T) {
	recs := []*SiteRecord{
		{Domain: "a.example", Loaded: true, HB: true, Facet: "client"},
		{Domain: "b.example", Loaded: true},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	data := buf.Bytes()

	var streamed []*SiteRecord
	if err := ReadStream(bytes.NewReader(data), func(r *SiteRecord) error {
		streamed = append(streamed, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// encoding/json, line by line, is the format's reference decoder.
	var batch []*SiteRecord
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		rec := new(SiteRecord)
		if err := json.Unmarshal(line, rec); err != nil {
			t.Fatal(err)
		}
		batch = append(batch, rec)
	}
	if !reflect.DeepEqual(streamed, batch) {
		t.Fatalf("streamed records differ from encoding/json:\n got %+v\nwant %+v", streamed, batch)
	}
}
