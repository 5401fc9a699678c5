package rtb

import (
	"encoding/json"
	"reflect"
	"testing"

	"headerbid/internal/rtb/jsonkit"
	"headerbid/internal/urlkit"
)

// The fuzz targets drive the scanner against arbitrary input and hold
// it to its one contract: whenever the fast path claims success, its
// result must be exactly what json.Unmarshal produces on a fresh
// struct, and json must agree the body is valid. (When the fast path
// bails, the public API literally calls json.Unmarshal, so equivalence
// is structural.) Seed corpus: f.Add below plus the committed files
// under testdata/fuzz/. CI runs each target briefly via `make
// fuzz-smoke`.

func fuzzSeedBodies() []string {
	return []string{
		``,
		`{}`,
		`null`,
		`[1,2]`,
		`{"id":"r1","imp":[{"id":"s1","banner":{"format":[{"w":300,"h":250}]},"bidfloor":0.05,"tagid":"t"}],"site":{"domain":"d","page":"p"},"user":{},"tmax":1500,"ext":{"prebid":{"bidder":"ix"}}}`,
		`{"id":"r1","cur":"USD","seatbid":[{"seat":"appnexus","bid":[{"impid":"s1","price":0.42,"w":300,"h":250,"adm":"<div>ad</div>","crid":"cr-9","nurl":"https://x/win"}]}],"nbr":0}`,
		`{"id":null,"imp":null,"site":null,"user":null,"ext":null}`,
		`{"imp":[null,{"banner":{"format":[null]}}]}`,
		`{"user":{"segments":["a",null]}}`,
		`{"ext":{"s":"\u0041\n\\","deep":[[[{"k":[true,false,null]}]]]}}`,
		`{"tmax":1e2}`,
		`{"tmax":-0}`,
		`{"id":"a","id":"b"}`,
		`{"ID":"case"}`,
		`{"seatbid":[{"bid":[{"price":1e-7},{"price":1e21},{"price":2.5e-9}]}]}`,
		`{"nbr":9223372036854775807}`,
		`{"nbr":9223372036854775808}`,
		` { "id" : "ws" } `,
		`{"id":"trail"} x`,
		`{"site":{"domain":"sm\u00f8rrebr\u00f8d.example"}}`,
		"{\"site\":{\"domain\":\"raw\xffbyte\"}}",
		`{"ext":"lonely`,
		`{"ext":{"a":1,"a":2}}`,
	}
}

func FuzzUnmarshalBidRequest(f *testing.F) {
	for _, body := range fuzzSeedBodies() {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		var fast BidRequest
		ok := jsonkit.Decode(body, nil, bidRequestFields, &fast)
		var want BidRequest
		werr := json.Unmarshal([]byte(body), &want)
		if ok {
			if werr != nil {
				t.Fatalf("fast path accepted %q which json rejects: %v", body, werr)
			}
			if !reflect.DeepEqual(fast, want) {
				t.Fatalf("fast path diverged on %q:\nfast %#v\njson %#v", body, fast, want)
			}
			// A fast-path success must re-encode to json.Marshal's bytes.
			got, gerr := fast.AppendJSON(nil)
			pin, perr := json.Marshal(&fast)
			if (gerr == nil) != (perr == nil) || (gerr == nil && string(got) != string(pin)) {
				t.Fatalf("re-encode diverged on %q: %s vs %s (%v, %v)", body, got, pin, gerr, perr)
			}
		}
		var pub BidRequest
		perr := UnmarshalBidRequest(body, &pub)
		if (perr == nil) != (werr == nil) {
			t.Fatalf("error disagreement on %q: codec %v, json %v", body, perr, werr)
		}
		if werr == nil && !reflect.DeepEqual(pub, want) {
			t.Fatalf("public decode diverged on %q:\ncodec %#v\njson  %#v", body, pub, want)
		}
	})
}

func FuzzUnmarshalBidResponse(f *testing.F) {
	for _, body := range fuzzSeedBodies() {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		var fast BidResponse
		ok := jsonkit.Decode(body, nil, bidResponseFields, &fast)
		var want BidResponse
		werr := json.Unmarshal([]byte(body), &want)
		if ok {
			if werr != nil {
				t.Fatalf("fast path accepted %q which json rejects: %v", body, werr)
			}
			if !reflect.DeepEqual(fast, want) {
				t.Fatalf("fast path diverged on %q:\nfast %#v\njson %#v", body, fast, want)
			}
			got, gerr := fast.AppendJSON(nil)
			pin, perr := json.Marshal(&fast)
			if (gerr == nil) != (perr == nil) || (gerr == nil && string(got) != string(pin)) {
				t.Fatalf("re-encode diverged on %q: %s vs %s (%v, %v)", body, got, pin, gerr, perr)
			}
		}
		var pub BidResponse
		perr := UnmarshalBidResponse(body, &pub)
		if (perr == nil) != (werr == nil) {
			t.Fatalf("error disagreement on %q: codec %v, json %v", body, perr, werr)
		}
		if werr == nil && !reflect.DeepEqual(pub, want) {
			t.Fatalf("public decode diverged on %q:\ncodec %#v\njson  %#v", body, pub, want)
		}
		// Decoded into a value that still holds another response, through
		// the public decode (its fast path wherever that applies) and
		// through the encoding/json fallback alone, body must read as it
		// does into a fresh value.
		for _, via := range []struct {
			name   string
			decode func(string, *BidResponse) error
		}{{"UnmarshalBidResponse", UnmarshalBidResponse}, {"the fallback", jsonUnmarshalBidResponse}} {
			used := heldResponse(t)
			uerr := via.decode(body, &used)
			if (uerr == nil) != (werr == nil) {
				t.Fatalf("%s into a used value: error disagreement on %q: %v, json %v", via.name, body, uerr, werr)
			}
			if werr == nil && !reflect.DeepEqual(used, want) {
				t.Fatalf("%s into a used value diverged on %q:\ncodec %#v\njson  %#v", via.name, body, used, want)
			}
		}
	})
}

// heldBody is the response a used destination holds before the fuzzed
// body is decoded into it: two seats, every field of a bid set, so any
// field or element a decode fails to overwrite shows.
const heldBody = `{"id":"held","cur":"EUR","nbr":3,"seatbid":[` +
	`{"seat":"s1","bid":[{"impid":"i1","price":1.5,"w":300,"h":250,"adm":"<b>","crid":"c1","dealid":"d1","nurl":"https://n/1"},` +
	`{"impid":"i2","price":2.5,"w":728,"h":90,"adm":"<i>","crid":"c2","dealid":"d2","nurl":"https://n/2"}]},` +
	`{"seat":"s2","bid":[{"impid":"i3","price":3.5,"w":160,"h":600,"adm":"<u>","crid":"c3","dealid":"d3","nurl":"https://n/3"}]}]}`

// heldResponse returns heldBody decoded, as storage a decode reuses.
func heldResponse(t *testing.T) BidResponse {
	t.Helper()
	var r BidResponse
	if err := UnmarshalBidResponse(heldBody, &r); err != nil || len(r.SeatBid) != 2 {
		t.Fatalf("held response %q does not decode: %v", heldBody, err)
	}
	return r
}

// FuzzEncodeBid holds the OpenRTB encoders to encoding/json, their
// reference: a BidRequest and a BidResponse built from the fuzzed
// strings, floats, int and Ext fragment must encode, after a non-empty
// prefix, to exactly json.Marshal's bytes, or fail where json.Marshal
// fails and leave only the prefix; EncodedLen must give that byte
// count, and the response, appended into a string chunk with room for
// it and into one a byte from full, those bytes as the chunk's string.
// Every field is set, then mask
// zeroes fields through the tables (bits 0–6 the request's, 7–10 its
// first impression's, 11 that impression's banner, 12–13 its first
// format, 14–16 the site, 17–18 the user, 19–22 the response's, 23–24
// its first seat's, 25–32 that seat's first bid), so omitempty is
// exercised member by member. The committed corpus under
// testdata/fuzz/FuzzEncodeBid/ seeds invalid UTF-8, "<>&",
// U+2028/U+2029, control bytes, −0, 1e-7, 5e-324, 1e21, NaN and ±Inf,
// and Ext fragments with whitespace, with '<', invalid and null.
func FuzzEncodeBid(f *testing.F) {
	f.Fuzz(func(t *testing.T, s1, s2 string, x, y float64, n int, ext string, mask uint64) {
		req := &BidRequest{
			ID: s1,
			Imp: []Impression{
				{ID: s2, Banner: Banner{Format: []Format{{W: n, H: -n}, {W: 728, H: 90}}}, FloorCPM: x, TagID: s1},
				{ID: s1 + s2, FloorCPM: y},
			},
			Site: Site{Domain: s1, Page: s2, Ref: s1 + s2},
			User: User{BuyerUID: s2, Segments: []string{s1, s2}},
			TMax: n, Test: 1,
			Ext: json.RawMessage(ext),
		}
		resp := &BidResponse{
			ID: s2,
			SeatBid: []SeatBid{
				{Seat: s1, Bid: []SeatOne{
					{ImpID: s1, Price: y, W: n, H: 250, AdMarkup: s2, CrID: s1, DealID: s2, NURL: s1 + s2},
					{ImpID: s2, Price: x},
				}},
				{Seat: s2, Bid: []SeatOne{}},
			},
			Currency: s1, NBR: n,
		}
		zeroFields(bidRequestFields, req, mask)
		if len(req.Imp) > 0 {
			imp := &req.Imp[0]
			zeroFields(impressionFields, imp, mask>>7)
			zeroFields(bannerFields, &imp.Banner, mask>>11)
			if len(imp.Banner.Format) > 0 {
				zeroFields(formatFields, &imp.Banner.Format[0], mask>>12)
			}
		}
		zeroFields(siteFields, &req.Site, mask>>14)
		zeroFields(userFields, &req.User, mask>>17)
		zeroFields(bidResponseFields, resp, mask>>19)
		if len(resp.SeatBid) > 0 {
			sb := &resp.SeatBid[0]
			zeroFields(seatBidFields, sb, mask>>23)
			if len(sb.Bid) > 0 {
				zeroFields(seatOneFields, &sb.Bid[0], mask>>25)
			}
		}

		const prefix = "prefix:"
		want, werr := json.Marshal(req)
		got, gerr := req.AppendJSON([]byte(prefix))
		checkEncoded(t, "BidRequest", got, gerr, want, werr)
		size, serr := req.EncodedLen()
		if (serr == nil) != (werr == nil) || (werr == nil && size != len(want)) {
			t.Fatalf("BidRequest.EncodedLen = %d, %v; json.Marshal wrote %d bytes, %v", size, serr, len(want), werr)
		}

		want, werr = json.Marshal(resp)
		got, gerr = resp.AppendJSON([]byte(prefix))
		checkEncoded(t, "BidResponse", got, gerr, want, werr)
		var strs urlkit.Strings
		for _, chunk := range []string{"with room", "a byte from full"} {
			b, serr := resp.AppendJSON(strs.Room(1))
			if s := strs.Take(b); (serr == nil) != (werr == nil) || (werr == nil && s != string(want)) {
				t.Fatalf("BidResponse.AppendJSON into a chunk %s = %q, %v; json.Marshal gives %q, %v", chunk, s, serr, want, werr)
			}
			free := strs.Room(1)
			strs.Take(append(free, make([]byte, cap(free)-1)...))
		}
	})
}

// checkEncoded holds one AppendJSON onto "prefix:" to json.Marshal's
// result: the same bytes after the prefix, or an error and the prefix
// alone.
func checkEncoded(t *testing.T, what string, got []byte, gerr error, want []byte, werr error) {
	t.Helper()
	if werr != nil {
		if gerr == nil || string(got) != "prefix:" {
			t.Fatalf("%s: json.Marshal fails (%v), AppendJSON gives %q, %v", what, werr, got, gerr)
		}
		return
	}
	if gerr != nil || string(got) != "prefix:"+string(want) {
		t.Fatalf("%s: AppendJSON wrote\n%s (%v)\njson.Marshal writes\nprefix:%s", what, got, gerr, want)
	}
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
