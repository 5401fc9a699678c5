package rtb

import (
	"encoding/json"
	"reflect"
	"testing"
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
		ok := fastDecodeBidRequest(body, &fast, nil, nil)
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
		ok := fastDecodeBidResponse(body, &fast, nil)
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
