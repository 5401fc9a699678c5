package dataset

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"headerbid/internal/rtb/jsonkit"
)

// FuzzDecodeRecord holds ReadStream's fast path to its contract: when it
// accepts a line, json must accept the line too and give a DeepEqual
// record; and ReadStream, fast path and fallback together, fails exactly
// when json.Unmarshal does and never panics. Seed corpus: f.Add below
// plus the committed files under testdata/fuzz/. CI runs the target
// briefly via `make fuzz-smoke`.

// fuzzRecords are a fault-free HB visit, a non-HB visit and a faulted,
// quarantined visit, every field of SiteRecord set in one of them.
func fuzzRecords() []*SiteRecord {
	return []*SiteRecord{
		{
			Domain: "site00008.example", Rank: 8, HB: true, Facet: "hybrid",
			Libraries: []string{"gpt.js", "prebid.js"},
			Partners:  []string{"dfp", "ix"},
			Winners:   []string{"ix", "rubicon"},
			Auctions: []AuctionRecord{
				{ID: "site00008.example-a1", AdUnit: "div-gpt-ad-1", Size: "300x250", DurationMS: 741.114645,
					Bids: []BidRecord{
						{Bidder: "ix", CPM: 0.0608, Size: "300x250", LatencyMS: 741.114645, Source: "client"},
						{Bidder: "rubicon", CPM: 0.1691, Size: "300x250", Late: true, Source: "s2s"},
					},
					Winner: "ix", WinnerCPM: 0.0608, Rendered: true},
				{ID: "site00008.example-a2", AdUnit: "div-gpt-ad-2", Failed: true},
			},
			TotalHBLatencyMS: 1166.248556,
			AdSlotsAuctioned: 2,
			PartnerLatencyMS: map[string][]float64{"ix": {741.114645, 12}, "rubicon": {}},
			Traffic:          TrafficRecord{BidRequests: 1, AdServer: 1, Creatives: 2, Beacons: 3, Scripts: 4},
			Loaded:           true,
		},
		{Domain: "site00001.example", Rank: 1, Traffic: TrafficRecord{Scripts: 2}, Loaded: true},
		{
			Domain: "site00042.example", Rank: 42, VisitDay: 3, HB: true, Facet: "client",
			Auctions:      []AuctionRecord{{ID: "site00042.example-a1", AdUnit: "div-gpt-ad-1", Bids: []BidRecord{}}},
			PartnerErrors: map[string]int{"appnexus": 2, "ix": 1},
			Retries:       3, Abandoned: 1,
			Quarantined: true, PanicSite: "prebid.onBidResponse",
			Traffic:  TrafficRecord{HostedCalls: 2, Other: 1},
			TimedOut: true, Err: "page load timeout",
		},
	}
}

// writtenLines returns the records as Writer emits them, one line each
// without the newline.
func writtenLines(t testing.TB, recs []*SiteRecord) []string {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
}

// fastPathCases hit every reason the fast path declines, next to near
// misses it must accept; fast is the decision the fast path must take.
var fastPathCases = []struct {
	line string
	fast bool
}{
	{``, false},
	{`{}`, true},
	{`null`, false},
	{`[]`, false},
	{`"site"`, false},
	{`{"Domain":"case"}`, false},
	{`{"domain":"a","extra":1}`, false},
	{`{"rank":1,"rank":2}`, false},
	{`{"traffic":{"scripts":1,"scripts":2}}`, false},
	{`{"auctions":[{"id":"a","id":"b"}]}`, false},
	{`{"auctions":[{"bids":[{"cpm":1,"cpm":2}]}]}`, false},
	{`{"partner_latency_ms":{"ix":[1],"ix":[2]}}`, false},
	{`{"partner_errors":{"ix":1,"ix":2}}`, false},
	{`{"domain":null}`, true},
	{`{"auctions":null}`, true},
	{`{"partner_latency_ms":{"ix":null}}`, true},
	{`{"domain":"esc\u0061ped"}`, false},
	{`{"domain":"quote\"d"}`, false},
	{`{"dom\u0061in":"key"}`, false},
	{"{\"domain\":\"raw\xffbyte\"}", false},
	{"{\"domain\":\"tab\there\"}", false},
	{`{"domain":"smørrebrød.example"}`, true},
	{`{"rank":1.0}`, false},
	{`{"rank":1e2}`, false},
	{`{"rank":-0}`, true},
	{`{"rank":01}`, false},
	{`{"rank":+1}`, false},
	{`{"rank":"1"}`, false},
	{`{"rank":9223372036854775807}`, true},
	{`{"rank":9223372036854775808}`, false},
	{`{"rank":-9223372036854775808}`, true},
	{`{"rank":-9223372036854775809}`, false},
	{`{"rank":12345678901234567890123}`, false},
	{`{"hb_latency_ms":1e400}`, false},
	{`{"hb_latency_ms":1e-400}`, true},
	{`{"hb_latency_ms":-0.0}`, true},
	{`{"hb_latency_ms":1.}`, false},
	{`{"hb_latency_ms":0.1234567890123456789012345678901234567890}`, true},
	{`{"hb":1}`, false},
	{`{"hb":tru}`, false},
	{`{"domain":"trail"} x`, false},
	{`{"domain":"trail"}{}`, false},
	{" {\t\"domain\" : \"ws\" ,\r\"rank\" : 3 } \r", true},
	{`{"auctions":[],"libraries":[],"partner_latency_ms":{},"partner_errors":{}}`, true},
	{`{"auctions":[{"bids":[]},{}],"partner_latency_ms":{"ix":[]}}`, true},
	{`{"auctions":[{"bids":[{}]},{"bids":[{"bidder":"a"},{"bidder":"b"}]}]}`, true},
	{`{"partners":["a",]}`, false},
	{`{"partners":["a"`, false},
	{`{"domain":"unterminated`, false},
}

func TestFastPathDecisions(t *testing.T) {
	for _, c := range fastPathCases {
		var rec SiteRecord
		if got := newLineDecoder().decode([]byte(c.line), &rec); got != c.fast {
			t.Errorf("fast path on %q: accepted %v, want %v", c.line, got, c.fast)
		}
	}
}

func FuzzDecodeRecord(f *testing.F) {
	canonical := writtenLines(f, fuzzRecords())
	for _, line := range canonical {
		f.Add(line)
	}
	for _, c := range fastPathCases {
		f.Add(c.line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		// ReadStream sees lines: no newline inside, no trailing CR.
		line = strings.ReplaceAll(line, "\n", " ")
		body := strings.TrimSuffix(line, "\r")

		var want SiteRecord
		werr := json.Unmarshal([]byte(body), &want)

		// A decoder that has already decoded a full record, so stale
		// scratch or intern state would show.
		d := newLineDecoder()
		var warm SiteRecord
		if !d.decode([]byte(canonical[0]), &warm) {
			t.Fatal("fast path declined the canonical record")
		}
		var fast SiteRecord
		if d.decode([]byte(body), &fast) {
			if werr != nil {
				t.Fatalf("fast path accepted %q which json rejects: %v", body, werr)
			}
			if !reflect.DeepEqual(fast, want) {
				t.Fatalf("fast path diverged on %q:\nfast %#v\njson %#v", body, fast, want)
			}
		}

		var got []*SiteRecord
		rerr := ReadStream(strings.NewReader(line), func(r *SiteRecord) error {
			got = append(got, r)
			return nil
		})
		if body == "" {
			if rerr != nil || len(got) != 0 {
				t.Fatalf("empty line: err %v, %d records", rerr, len(got))
			}
			return
		}
		if (rerr == nil) != (werr == nil) {
			t.Fatalf("error disagreement on %q: ReadStream %v, json %v", body, rerr, werr)
		}
		if werr != nil {
			return
		}
		if len(got) != 1 || !reflect.DeepEqual(*got[0], want) {
			t.Fatalf("ReadStream diverged on %q:\ngot  %#v\njson %#v", body, got, want)
		}
	})
}

// FuzzEncodeRecord holds Writer to encoding/json, its reference: a
// record built from the fuzzed strings, floats and int must encode to
// exactly the bytes json.Encoder writes for it, or both must fail, and
// a failed Write must write nothing. Every field is set, then mask
// zeroes fields through the tables (bits 0–20 the record's, 21–29 the
// first auction's, 30–35 its first bid's, 36–42 the traffic's), so
// omitempty is exercised member by member. The committed corpus under
// testdata/fuzz/FuzzEncodeRecord/ seeds invalid UTF-8, "<>&",
// U+2028/U+2029, control bytes, −0, 1e-7, 5e-324, 1e21,
// 999999999.999999, NaN and ±Inf.
func FuzzEncodeRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, s1, s2 string, x, y float64, n int, mask uint64) {
		rec := &SiteRecord{
			Domain: s1, Rank: n, VisitDay: -n, HB: true, Facet: s2,
			Libraries: []string{s1, s2}, Partners: []string{s2}, Winners: []string{},
			Auctions: []AuctionRecord{
				{ID: s1, AdUnit: s2, Size: s1, DurationMS: x,
					Bids: []BidRecord{
						{Bidder: s1, CPM: x, Size: s2, Late: true, LatencyMS: y, Source: s1},
						{Bidder: s2, CPM: y},
					},
					Winner: s2, WinnerCPM: y, Rendered: true, Failed: true},
				{ID: s2, Bids: []BidRecord{}},
			},
			TotalHBLatencyMS: y, AdSlotsAuctioned: n,
			PartnerLatencyMS: map[string][]float64{s1: {x, y}, s2 + "\x00": {}, s1 + s2 + "z": nil},
			Traffic:          TrafficRecord{BidRequests: n, HostedCalls: 1, AdServer: 2, Creatives: 3, Beacons: 4, Scripts: 5, Other: -n},
			PartnerErrors:    map[string]int{s1: n, s2 + "<": 1},
			Retries:          n, Abandoned: 1, Quarantined: true, PanicSite: s2,
			Loaded: true, TimedOut: true, Err: s1 + s2,
		}
		zeroFields(siteFields, rec, mask)
		if len(rec.Auctions) > 0 {
			a := &rec.Auctions[0]
			zeroFields(auctionFields, a, mask>>21)
			if len(a.Bids) > 0 {
				zeroFields(bidFields, &a.Bids[0], mask>>30)
			}
		}
		zeroFields(trafficFields, &rec.Traffic, mask>>36)

		var want bytes.Buffer
		werr := json.NewEncoder(&want).Encode(rec)
		var got bytes.Buffer
		w := NewWriter(&got)
		gerr := w.Write(rec)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("Writer error %v, encoding/json error %v", gerr, werr)
		}
		if werr != nil {
			if got.Len() != 0 || w.Count() != 0 || gerr.Error() != werr.Error() {
				t.Fatalf("failed Write: wrote %q, Count %d, error %v (encoding/json: %v)", got.Bytes(), w.Count(), gerr, werr)
			}
			return
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("Writer wrote\n%s\nencoding/json writes\n%s", got.Bytes(), want.Bytes())
		}
	})
}

// zeroFields sets to its zero value every field of r whose table index
// has its bit set in mask.
func zeroFields[R any](fields []jsonkit.Field[*R], r *R, mask uint64) {
	for i := range fields {
		if mask&(1<<i) != 0 {
			reflect.ValueOf(fields[i].Ptr(r)).Elem().SetZero()
		}
	}
}
