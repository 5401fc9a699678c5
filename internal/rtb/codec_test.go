package rtb

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"headerbid/internal/rng"
)

// encodeCases covers every shape and the omitempty/nil-vs-empty/Ext
// corners the encoder must pin byte-for-byte to encoding/json.
func encodeRequestCases() []*BidRequest {
	return []*BidRequest{
		{},                    // all zero: "imp":null, empty site/user objects
		{Imp: []Impression{}}, // empty non-nil slice -> []
		sampleRequest(),
		{
			ID: "full",
			Imp: []Impression{
				{ID: "s1", Banner: Banner{Format: []Format{{300, 250}, {728, 90}}}, FloorCPM: 0.05, TagID: "tag-1"},
				{ID: "s2"}, // nil Format -> "format":null
				{ID: "s3", Banner: Banner{Format: []Format{}}}, // empty Format -> []
				{ID: "s4", FloorCPM: -0.0},                     // negative zero is omitempty-zero
			},
			Site: Site{Domain: "pub.example", Page: "https://pub.example/p?a=1&b=2", Ref: "https://ref.example/"},
			User: User{BuyerUID: "uid-1", Segments: []string{"seg-a", "seg-b"}},
			TMax: 1500,
			Test: 1,
			Ext:  json.RawMessage(`{"prebid":{"bidder":"rubicon"}}`),
		},
		{ID: "neg", TMax: -7, Test: -1},
		{ID: "segs-only", User: User{Segments: []string{"one"}}},
		{ID: "empty-segs", User: User{Segments: []string{}}}, // len 0 -> omitted
		{ID: "esc", Site: Site{Domain: "küche.example", Page: "p\"q\\r\tu\nv<w>&x\x01y"}},
		{ID: "bad-utf8", Site: Site{Domain: "a\xffb", Page: "line\u2028sep\u2029end"}},
		{ID: "floats", Imp: []Impression{
			{ID: "tiny", FloorCPM: 1e-7},  // < 1e-6: 'e' format
			{ID: "edge", FloorCPM: 1e-6},  // boundary: 'f' format
			{ID: "huge", FloorCPM: 1e21},  // >= 1e21: 'e' format
			{ID: "big", FloorCPM: 9.9e20}, // just under: 'f'
			{ID: "neg", FloorCPM: -3.25},
			{ID: "frac", FloorCPM: 0.1},
			{ID: "exp9", FloorCPM: 2.5e-9}, // exercises the e-09 -> e-9 cleanup
		}},
		// Ext variants that must force the stdlib fallback and still
		// produce stdlib bytes.
		{ID: "ext-ws", Ext: json.RawMessage(`{ "a" : 1 }`)},
		{ID: "ext-html", Ext: json.RawMessage(`{"a":"<b>&</b>"}`)},
		{ID: "ext-sep", Ext: json.RawMessage("{\"a\":\"x\u2028y\"}")},
		{ID: "ext-scalar", Ext: json.RawMessage(`"plain"`)},
		{ID: "ext-null", Ext: json.RawMessage(`null`)},
	}
}

func encodeResponseCases() []*BidResponse {
	return []*BidResponse{
		{},
		{ID: "nobid", NBR: 2},
		{ID: "r1", Currency: "USD", SeatBid: []SeatBid{
			{Seat: "appnexus", Bid: []SeatOne{
				{ImpID: "s1", Price: 0.42, W: 300, H: 250, AdMarkup: "<div class=\"ad\">x&y</div>", CrID: "cr-1", DealID: "d-1", NURL: "https://an.example/win?p=${AUCTION_PRICE}"},
				{ImpID: "s2", Price: 1.0001},
			}},
			{Seat: "rubicon", Bid: nil},    // "bid":null
			{Seat: "ix", Bid: []SeatOne{}}, // "bid":[]
		}},
		{ID: "prices", SeatBid: []SeatBid{{Seat: "s", Bid: []SeatOne{
			{ImpID: "a", Price: 1e-7},
			{ImpID: "b", Price: 1e21},
			{ImpID: "c", Price: 123456.789},
		}}}},
		{ID: "empty-seatbid", SeatBid: []SeatBid{}}, // omitempty: len 0 -> omitted
	}
}

func TestEncodeGoldenBidRequest(t *testing.T) {
	for _, req := range encodeRequestCases() {
		want, werr := json.Marshal(req)
		got, gerr := req.AppendJSON(nil)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("error mismatch for %+v: json=%v codec=%v", req, werr, gerr)
		}
		if werr != nil {
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("encode mismatch for %+v:\n got %s\nwant %s", req, got, want)
		}
		n, nerr := req.EncodedLen()
		if nerr != nil || n != len(want) {
			t.Errorf("EncodedLen = %d (err %v), want %d", n, nerr, len(want))
		}
	}
}

func TestEncodeGoldenBidResponse(t *testing.T) {
	for _, resp := range encodeResponseCases() {
		want, werr := json.Marshal(resp)
		got, gerr := resp.AppendJSON(nil)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("error mismatch for %+v: json=%v codec=%v", resp, werr, gerr)
		}
		if werr != nil {
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("encode mismatch for %+v:\n got %s\nwant %s", resp, got, want)
		}
		s, serr := resp.EncodeString()
		if serr != nil || s != string(want) {
			t.Errorf("EncodeString mismatch: %q vs %q (err %v)", s, want, serr)
		}
	}
}

// Non-finite floats are unrepresentable in JSON: the codec must surface
// exactly the stdlib error (it delegates, so the error values match).
func TestEncodeNonFiniteMatchesStdlib(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		req := &BidRequest{Imp: []Impression{{FloorCPM: f}}}
		_, werr := json.Marshal(req)
		_, gerr := req.AppendJSON(nil)
		if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
			t.Fatalf("float %v: json err %v, codec err %v", f, werr, gerr)
		}
		resp := &BidResponse{SeatBid: []SeatBid{{Bid: []SeatOne{{Price: f}}}}}
		_, werr = json.Marshal(resp)
		_, gerr = resp.AppendJSON(nil)
		if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
			t.Fatalf("float %v: json err %v, codec err %v", f, werr, gerr)
		}
	}
}

// Invalid Ext fragments make json.Marshal fail; the codec must too.
func TestEncodeInvalidExtMatchesStdlib(t *testing.T) {
	for _, ext := range []string{`{`, `{"a":}`, `tru`, `1 2`} {
		req := &BidRequest{ID: "x", Ext: json.RawMessage(ext)}
		_, werr := json.Marshal(req)
		_, gerr := req.AppendJSON(nil)
		if werr == nil || gerr == nil {
			t.Fatalf("ext %q: json err %v, codec err %v", ext, werr, gerr)
		}
	}
}

// AppendJSON must leave previously appended bytes intact, including on
// the fallback path (which rewinds to its mark first).
func TestAppendJSONPreservesPrefix(t *testing.T) {
	req := sampleRequest()
	out, err := req.AppendJSON([]byte("prefix:"))
	if err != nil || !bytes.HasPrefix(out, []byte("prefix:")) {
		t.Fatalf("prefix lost: %q (%v)", out, err)
	}
	want, _ := json.Marshal(req)
	if !bytes.Equal(out[len("prefix:"):], want) {
		t.Fatalf("suffix mismatch: %q vs %q", out[len("prefix:"):], want)
	}
	bad := &BidRequest{Ext: json.RawMessage(`{`)}
	out, err = bad.AppendJSON([]byte("keep"))
	if err == nil || string(out) != "keep" {
		t.Fatalf("fallback error should rewind: %q (%v)", out, err)
	}
}

// decodeBodies is the differential corpus: for each body, the fast
// scanner either produces exactly what json.Unmarshal produces, or it
// falls back to json.Unmarshal (in which case equality is trivial). The
// test distinguishes the two so fast-path coverage is explicit.
var decodeRequestBodies = []struct {
	body string
	fast bool // expect the fast path to handle it end to end
}{
	{`{}`, true},
	{`{"id":"r1","imp":[{"id":"s1","banner":{"format":[{"w":300,"h":250}]},"bidfloor":0.05,"tagid":"t"}],"site":{"domain":"d","page":"p","ref":"r"},"user":{"buyeruid":"u","segments":["a","b"]},"tmax":1500,"test":1,"ext":{"prebid":{"bidder":"ix"}}}`, true},
	{` { "id" : "ws" , "tmax" : 42 } `, true},
	{`{"id":null,"imp":null,"site":null,"user":null,"tmax":null,"ext":null}`, true},
	{`{"imp":[]}`, true},
	{`{"imp":[null]}`, true},
	{`{"imp":[{"banner":null}]}`, true},
	{`{"imp":[{"banner":{}}]}`, true},
	{`{"imp":[{"banner":{"format":[]}}]}`, true},
	{`{"imp":[{"banner":{"format":[null,{"w":1}]}}]}`, true},
	{`{"user":{"segments":[]}}`, true},
	{`{"user":{"segments":[null,"x"]}}`, true},
	{`{"ext":[1,2,{"a":[true,false,null]}]}`, true},
	{`{"ext":"scalar"}`, true},
	{`{"ext":{"s":"with \"escape\" and \u0041"}}`, true},
	{`{"tmax":-3}`, true},
	{`{"imp":[{"bidfloor":1e-3},{"bidfloor":-0.5},{"bidfloor":2E+2}]}`, true},
	// fallback territory: unknown keys, case mismatch, duplicates,
	// escapes, numbers that do not fit, foreign structure
	{`{"id":"x","foreign":123}`, false},
	{`{"ID":"case"}`, false},
	{`{"id":"a","id":"b"}`, false},
	{`{"site":{"domain":"e\u0073c"}}`, false},
	{`{"tmax":1e2}`, false},                 // json errors: float into int
	{`{"tmax":2.0}`, false},                 // same
	{`{"tmax":9223372036854775808}`, false}, // overflow: json errors
	{`{"sizes":[1]}`, false},                // json:"-" field name is unknown on the wire
	{`{"imp":{"id":"obj"}}`, false},         // wrong container type: json errors
	{`null`, false},                         // json: success, leaves zero struct
	{`{"id":"dup-ok","imp":[{"id":"a"},{"id":"a"}]}`, true},
	{`{"id":"trail"} x`, false}, // trailing garbage: json errors
	{`{"id":"x"`, false},
	{``, false},
	{`[1,2]`, false},
	{`{"site":{"domain":"\ud83d\ude00"}}`, false}, // surrogate escape pair
	{`{"id":"überdomain","site":{"domain":"smørrebrød.example"}}`, true},
}

func TestDecodeDifferentialBidRequest(t *testing.T) {
	for _, tc := range decodeRequestBodies {
		var fastDst BidRequest
		fastOK := fastDecodeBidRequest(tc.body, &fastDst, nil, nil)
		if fastOK != tc.fast {
			t.Errorf("body %q: fast path = %v, want %v", tc.body, fastOK, tc.fast)
		}
		var want BidRequest
		werr := json.Unmarshal([]byte(tc.body), &want)
		if fastOK {
			if werr != nil {
				t.Errorf("body %q: fast path accepted what json rejects (%v)", tc.body, werr)
				continue
			}
			if !reflect.DeepEqual(fastDst, want) {
				t.Errorf("body %q:\nfast %#v\njson %#v", tc.body, fastDst, want)
			}
		}
		// The public API must agree with json.Unmarshal regardless of path.
		var got BidRequest
		gerr := UnmarshalBidRequest(tc.body, &got)
		if (werr == nil) != (gerr == nil) {
			t.Errorf("body %q: json err %v, codec err %v", tc.body, werr, gerr)
			continue
		}
		if werr == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("body %q:\ncodec %#v\njson  %#v", tc.body, got, want)
		}
	}
}

var decodeResponseBodies = []struct {
	body string
	fast bool
}{
	{`{}`, true},
	{`{"id":"r1","cur":"USD","seatbid":[{"seat":"appnexus","bid":[{"impid":"s1","price":0.42,"w":300,"h":250,"adm":"<div>ad</div>","crid":"cr-9","dealid":"d","nurl":"https://x/win"}]}]}`, true},
	{`{"id":"nobid","nbr":2}`, true},
	{`{"seatbid":[]}`, true},
	{`{"seatbid":[null]}`, true},
	{`{"seatbid":[{"seat":"s","bid":null}]}`, true},
	{`{"seatbid":[{"seat":"s","bid":[]}]}`, true},
	{`{"seatbid":[{"bid":[null,{"impid":"x"}]}]}`, true},
	{`{"seatbid":[{"bid":[{"price":1e-7},{"price":3}]}]}`, true},
	{` {"id" : "ws"} `, true},
	{`{"id":null,"seatbid":null,"cur":null,"nbr":null}`, true},
	{`{"id":"x","unknown":1}`, false},
	{`{"Cur":"USD"}`, false},
	{`{"nbr":2,"nbr":3}`, false},
	{`{"seatbid":[{"bid":[{"adm":"a\nb"}]}]}`, false}, // escaped content
	{`{"nbr":1.5}`, false},
	{`<html>error</html>`, false},
	{`{"id":"trunc`, false},
	{`null`, false},
	{`{"cur":"\u20ac"}`, false},
}

func TestDecodeDifferentialBidResponse(t *testing.T) {
	for _, tc := range decodeResponseBodies {
		var fastDst BidResponse
		fastOK := fastDecodeBidResponse(tc.body, &fastDst, nil)
		if fastOK != tc.fast {
			t.Errorf("body %q: fast path = %v, want %v", tc.body, fastOK, tc.fast)
		}
		var want BidResponse
		werr := json.Unmarshal([]byte(tc.body), &want)
		if fastOK {
			if werr != nil {
				t.Errorf("body %q: fast path accepted what json rejects (%v)", tc.body, werr)
				continue
			}
			if !reflect.DeepEqual(fastDst, want) {
				t.Errorf("body %q:\nfast %#v\njson %#v", tc.body, fastDst, want)
			}
		}
		var got BidResponse
		gerr := UnmarshalBidResponse(tc.body, &got)
		if (werr == nil) != (gerr == nil) {
			t.Errorf("body %q: json err %v, codec err %v", tc.body, werr, gerr)
			continue
		}
		if werr == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("body %q:\ncodec %#v\njson  %#v", tc.body, got, want)
		}
	}
}

// randomRequest builds a randomized but wire-representable BidRequest:
// strings stay in the plain-ASCII range the fast scanner keeps verbatim
// so the round trip exercises the fast path, not the fallback.
func randomRequest(r *rng.Stream) *BidRequest {
	req := &BidRequest{ID: randomToken(r)}
	nImp := r.Intn(4)
	if nImp > 0 || r.Bool(0.5) {
		req.Imp = make([]Impression, nImp)
		for i := range req.Imp {
			req.Imp[i] = Impression{ID: randomToken(r), TagID: maybeToken(r)}
			if r.Bool(0.8) {
				nf := r.Intn(3)
				req.Imp[i].Banner.Format = make([]Format, nf)
				for j := range req.Imp[i].Banner.Format {
					req.Imp[i].Banner.Format[j] = Format{W: r.Intn(1000), H: r.Intn(1000)}
				}
			}
			if r.Bool(0.5) {
				req.Imp[i].FloorCPM = float64(r.Intn(1000)) / 997
			}
		}
	}
	req.Site = Site{Domain: randomToken(r), Page: randomToken(r), Ref: maybeToken(r)}
	if r.Bool(0.3) {
		req.User.BuyerUID = randomToken(r)
	}
	if r.Bool(0.2) {
		n := 1 + r.Intn(3)
		req.User.Segments = make([]string, n)
		for i := range req.User.Segments {
			req.User.Segments[i] = randomToken(r)
		}
	}
	if r.Bool(0.6) {
		req.TMax = r.Intn(10000)
	}
	if r.Bool(0.1) {
		req.Test = 1
	}
	if r.Bool(0.5) {
		req.Ext = json.RawMessage(`{"prebid":{"bidder":"` + randomToken(r) + `"}}`)
	}
	return req
}

func randomResponse(r *rng.Stream) *BidResponse {
	resp := &BidResponse{ID: randomToken(r), Currency: maybeToken(r)}
	nSeat := r.Intn(4)
	if nSeat > 0 {
		resp.SeatBid = make([]SeatBid, nSeat)
		for i := range resp.SeatBid {
			sb := &resp.SeatBid[i]
			sb.Seat = randomToken(r)
			nBid := r.Intn(3)
			sb.Bid = make([]SeatOne, nBid)
			for j := range sb.Bid {
				sb.Bid[j] = SeatOne{
					ImpID: randomToken(r),
					Price: float64(r.Intn(100000)) / 9973,
					W:     r.Intn(1000),
					H:     r.Intn(1000),
					CrID:  maybeToken(r),
					NURL:  maybeToken(r),
				}
			}
		}
	} else if r.Bool(0.3) {
		resp.NBR = 1 + r.Intn(8)
	}
	return resp
}

const tokenAlphabet = "abcdefghijklmnopqrstuvwxyz0123456789-._~:/?#"

func randomToken(r *rng.Stream) string {
	n := 1 + r.Intn(12)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(tokenAlphabet[r.Intn(len(tokenAlphabet))])
	}
	return sb.String()
}

func maybeToken(r *rng.Stream) string {
	if r.Bool(0.5) {
		return ""
	}
	return randomToken(r)
}

// The round-trip property: encode -> decode -> encode is a fixed point,
// the encoder matches json.Marshal, and the fast decoder matches
// json.Unmarshal — for thousands of randomized shapes.
func TestCodecRoundTripProperty(t *testing.T) {
	r := rng.New(20260807)
	for trial := 0; trial < 2000; trial++ {
		req := randomRequest(r)
		blob, err := req.AppendJSON(nil)
		if err != nil {
			t.Fatalf("trial %d: encode: %v", trial, err)
		}
		want, _ := json.Marshal(req)
		if !bytes.Equal(blob, want) {
			t.Fatalf("trial %d: encode mismatch:\n got %s\nwant %s", trial, blob, want)
		}
		var back BidRequest
		if !fastDecodeBidRequest(string(blob), &back, nil, nil) {
			t.Fatalf("trial %d: fast decode refused own encoding: %s", trial, blob)
		}
		var jsonBack BidRequest
		if err := json.Unmarshal(blob, &jsonBack); err != nil {
			t.Fatalf("trial %d: json decode: %v", trial, err)
		}
		if !reflect.DeepEqual(back, jsonBack) {
			t.Fatalf("trial %d: decode mismatch:\nfast %#v\njson %#v", trial, back, jsonBack)
		}
		again, err := back.AppendJSON(nil)
		if err != nil || !bytes.Equal(again, blob) {
			t.Fatalf("trial %d: not a fixed point:\n 1st %s\n 2nd %s (%v)", trial, blob, again, err)
		}

		resp := randomResponse(r)
		rblob, err := resp.AppendJSON(nil)
		if err != nil {
			t.Fatalf("trial %d: encode resp: %v", trial, err)
		}
		rwant, _ := json.Marshal(resp)
		if !bytes.Equal(rblob, rwant) {
			t.Fatalf("trial %d: resp encode mismatch:\n got %s\nwant %s", trial, rblob, rwant)
		}
		var rback BidResponse
		if !fastDecodeBidResponse(string(rblob), &rback, nil) {
			t.Fatalf("trial %d: fast decode refused own encoding: %s", trial, rblob)
		}
		var rjson BidResponse
		if err := json.Unmarshal(rblob, &rjson); err != nil {
			t.Fatalf("trial %d: json decode resp: %v", trial, err)
		}
		if !reflect.DeepEqual(rback, rjson) {
			t.Fatalf("trial %d: resp decode mismatch:\nfast %#v\njson %#v", trial, rback, rjson)
		}
		ragain, err := rback.AppendJSON(nil)
		if err != nil || !bytes.Equal(ragain, rblob) {
			t.Fatalf("trial %d: resp not a fixed point:\n 1st %s\n 2nd %s (%v)", trial, rblob, ragain, err)
		}
	}
}

// Foreign bodies — unknown keys, exotic nesting — must decode exactly
// as they did when encoding/json owned the path.
func TestDecodeForeignBodiesFallBack(t *testing.T) {
	foreign := []string{
		`{"id":"openrtb26","imp":[{"id":"1","video":{"mimes":["video/mp4"]},"banner":{"format":[{"w":300,"h":250}],"pos":1}}],"app":{"bundle":"com.example"},"device":{"ua":"Mozilla"},"regs":{"coppa":0}}`,
		`{"id":"resp","seatbid":[{"seat":"dsp","group":0,"bid":[{"impid":"1","price":1.5,"adomain":["adv.example"],"cat":["IAB1"]}]}],"bidid":"b1"}`,
		`{"ID":"case-insensitive-match"}`,
	}
	for _, body := range foreign {
		var gotReq, wantReq BidRequest
		if err := UnmarshalBidRequest(body, &gotReq); err != nil {
			t.Fatalf("foreign request body rejected: %v\n%s", err, body)
		}
		if err := json.Unmarshal([]byte(body), &wantReq); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotReq, wantReq) {
			t.Errorf("foreign body %q:\ncodec %#v\njson  %#v", body, gotReq, wantReq)
		}
		var gotResp, wantResp BidResponse
		if err := UnmarshalBidResponse(body, &gotResp); err != nil {
			t.Fatalf("foreign response body rejected: %v\n%s", err, body)
		}
		if err := json.Unmarshal([]byte(body), &wantResp); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotResp, wantResp) {
			t.Errorf("foreign body %q:\ncodec %#v\njson  %#v", body, gotResp, wantResp)
		}
	}
}

// Decoding into a reused destination must (a) fully overwrite prior
// state and (b) reuse slice capacity instead of reallocating.
func TestDecodeScratchReuse(t *testing.T) {
	var resp BidResponse
	big := `{"id":"a","seatbid":[{"seat":"s1","bid":[{"impid":"i1","price":1},{"impid":"i2","price":2}]},{"seat":"s2","bid":[{"impid":"i3","price":3}]}],"cur":"USD"}`
	if err := UnmarshalBidResponse(big, &resp); err != nil {
		t.Fatal(err)
	}
	small := `{"id":"b","seatbid":[{"seat":"s9","bid":[{"impid":"i9","price":9}]}]}`
	if err := UnmarshalBidResponse(small, &resp); err != nil {
		t.Fatal(err)
	}
	var want BidResponse
	json.Unmarshal([]byte(small), &want)
	if !reflect.DeepEqual(resp, want) {
		t.Fatalf("reused decode diverged:\ngot  %#v\nwant %#v", resp, want)
	}

	var req BidRequest
	b1 := `{"id":"a","imp":[{"id":"1","banner":{"format":[{"w":1,"h":2},{"w":3,"h":4}]}},{"id":"2"}],"ext":{"k":"v"}}`
	if err := UnmarshalBidRequest(b1, &req); err != nil {
		t.Fatal(err)
	}
	b2 := `{"id":"b","imp":[{"id":"9","banner":{"format":[{"w":7,"h":8}]}}]}`
	if err := UnmarshalBidRequest(b2, &req); err != nil {
		t.Fatal(err)
	}
	var wantReq BidRequest
	json.Unmarshal([]byte(b2), &wantReq)
	if !reflect.DeepEqual(req, wantReq) {
		t.Fatalf("reused request decode diverged:\ngot  %#v\nwant %#v", req, wantReq)
	}

	// Steady state: same-shape decodes into a warm destination are
	// allocation-free (strings are substrings of the body).
	warmBody := big
	if err := UnmarshalBidResponse(warmBody, &resp); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := UnmarshalBidResponse(warmBody, &resp); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm UnmarshalBidResponse allocates %.1f/op, want 0", allocs)
	}
}

// A warm encode through the pooled buffer allocates nothing: a sender
// learns its body's length without a string of the bytes.
func TestEncodedLenAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation makes sync.Pool drop buffers, inflating the alloc count")
	}
	req := sampleRequest()
	req.Ext = json.RawMessage(`{"prebid":{"bidder":"rubicon"}}`)
	if _, err := req.EncodedLen(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := req.EncodedLen(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a warm EncodedLen allocates %.1f/op, want 0", allocs)
	}
}

func BenchmarkEncodeBidRequest_Codec(b *testing.B) {
	req := sampleRequest()
	req.Ext = json.RawMessage(`{"prebid":{"bidder":"rubicon"}}`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := req.EncodedLen(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeBidRequest_StdJSON(b *testing.B) {
	req := sampleRequest()
	req.Ext = json.RawMessage(`{"prebid":{"bidder":"rubicon"}}`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blob, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		_ = string(blob)
	}
}

var benchRespBody = `{"id":"req-1","cur":"USD","seatbid":[{"seat":"appnexus","bid":[{"impid":"slot-1","price":0.42,"w":300,"h":250,"adm":"<div>ad</div>","crid":"cr-9","nurl":"https://an.example/win?p=0.42"}]}]}`

func BenchmarkDecodeBidResponse_Codec(b *testing.B) {
	var resp BidResponse
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := UnmarshalBidResponse(benchRespBody, &resp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeBidResponse_StdJSON(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var resp BidResponse
		if err := json.Unmarshal([]byte(benchRespBody), &resp); err != nil {
			b.Fatal(err)
		}
	}
}

var benchReqBody = `{"id":"w3-prebid-appnexus-1","imp":[{"id":"div-gpt-ad-1","banner":{"format":[{"w":300,"h":250},{"w":336,"h":280}]},"bidfloor":0.05,"tagid":"div-gpt-ad-1"}],"site":{"domain":"pub.example","page":"https://www.pub.example/"},"user":{},"tmax":3000,"ext":{"prebid":{"bidder":"appnexus"}}}`

func BenchmarkDecodeBidRequest_Codec(b *testing.B) {
	var req BidRequest
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := UnmarshalBidRequest(benchReqBody, &req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeBidRequest_StdJSON(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var req BidRequest
		if err := json.Unmarshal([]byte(benchReqBody), &req); err != nil {
			b.Fatal(err)
		}
	}
}
