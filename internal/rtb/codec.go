// The OpenRTB codec: one field table per struct, which the JSON kernel
// (internal/rtb/jsonkit) walks to encode and decode it, and
// encoding/json as the fallback and the reference.
//
// The crawl hot path encodes one BidRequest and decodes one BidResponse
// per partner per visit (and the simulated partner does the mirror
// image); encoding/json's reflect-driven walk was once the single
// largest CPU head (~14% cumulative, see PERF.md). The shapes are closed
// (rtb.go owns them and nothing else extends them), so a table per
// struct describes each of them once:
//
//   - The encoder appends into a caller-supplied (pooled) []byte and is
//     byte-pinned to encoding/json's output: same field order, same
//     omitempty behavior, same string escaping (escapeHTML=true), same
//     ES6-style float formatting, same RawMessage compaction rules. The
//     golden tests in codec_test.go and FuzzEncodeBid assert byte
//     equality against json.Marshal; the detector's payload heuristics
//     therefore see identical wire bytes.
//
//   - The decoder reads the body string for the known key set, its
//     strings substrings of the body, and decodes into the destination's
//     existing capacity: imp, format, seatbid and bid lists and the Ext
//     bytes reuse what the last decode into it left. Anything the kernel
//     does not recognize with certainty (jsonkit's decline rules) makes
//     it bail out and re-decode the whole body with encoding/json, so
//     foreign bodies still parse exactly as before. The fast path never
//     guesses: it either reproduces json.Unmarshal's result (fuzz-
//     verified by differential testing) or it defers to json.Unmarshal.
//
// Both fallbacks are the sanctioned exceptions to hbvet's "no
// encoding/json in the hot path" rule and carry //hbvet:allow markers.
package rtb

import (
	"encoding/json"
	"sync"

	"headerbid/internal/rtb/jsonkit"
)

// The field tables, one per struct, in declaration order
// (TestFieldTablesMatchTags holds them to the struct tags).
var (
	formatFields = jsonkit.Table([]jsonkit.Field[*Format]{
		{Key: "w", Ptr: func(f *Format) any { return &f.W }},
		{Key: "h", Ptr: func(f *Format) any { return &f.H }},
	})
	bannerFields = jsonkit.Table([]jsonkit.Field[*Banner]{
		{Key: "format", Ptr: func(b *Banner) any { return &b.Format }, Kind: jsonkit.List(formatFields, nil)},
	})
	impressionFields = jsonkit.Table([]jsonkit.Field[*Impression]{
		{Key: "id", Ptr: func(imp *Impression) any { return &imp.ID }},
		{Key: "banner", Ptr: func(imp *Impression) any { return &imp.Banner }, Kind: jsonkit.Object(bannerFields)},
		{Key: "bidfloor", Omitempty: true, Ptr: func(imp *Impression) any { return &imp.FloorCPM }},
		{Key: "tagid", Omitempty: true, Ptr: func(imp *Impression) any { return &imp.TagID }},
	})
	siteFields = jsonkit.Table([]jsonkit.Field[*Site]{
		{Key: "domain", Ptr: func(s *Site) any { return &s.Domain }},
		{Key: "page", Ptr: func(s *Site) any { return &s.Page }},
		{Key: "ref", Omitempty: true, Ptr: func(s *Site) any { return &s.Ref }},
	})
	userFields = jsonkit.Table([]jsonkit.Field[*User]{
		{Key: "buyeruid", Omitempty: true, Ptr: func(u *User) any { return &u.BuyerUID }},
		{Key: "segments", Omitempty: true, Ptr: func(u *User) any { return &u.Segments }},
	})
	bidRequestFields = jsonkit.Table([]jsonkit.Field[*BidRequest]{
		{Key: "id", Ptr: func(r *BidRequest) any { return &r.ID }},
		{Key: "imp", Ptr: func(r *BidRequest) any { return &r.Imp }, Kind: jsonkit.List(impressionFields, nil)},
		{Key: "site", Ptr: func(r *BidRequest) any { return &r.Site }, Kind: jsonkit.Object(siteFields)},
		{Key: "user", Ptr: func(r *BidRequest) any { return &r.User }, Kind: jsonkit.Object(userFields)},
		{Key: "tmax", Omitempty: true, Ptr: func(r *BidRequest) any { return &r.TMax }},
		{Key: "test", Omitempty: true, Ptr: func(r *BidRequest) any { return &r.Test }},
		{Key: "ext", Omitempty: true, Ptr: func(r *BidRequest) any { return &r.Ext }},
	})
	seatOneFields = jsonkit.Table([]jsonkit.Field[*SeatOne]{
		{Key: "impid", Ptr: func(b *SeatOne) any { return &b.ImpID }},
		{Key: "price", Ptr: func(b *SeatOne) any { return &b.Price }},
		{Key: "w", Ptr: func(b *SeatOne) any { return &b.W }},
		{Key: "h", Ptr: func(b *SeatOne) any { return &b.H }},
		{Key: "adm", Omitempty: true, Ptr: func(b *SeatOne) any { return &b.AdMarkup }},
		{Key: "crid", Omitempty: true, Ptr: func(b *SeatOne) any { return &b.CrID }},
		{Key: "dealid", Omitempty: true, Ptr: func(b *SeatOne) any { return &b.DealID }},
		{Key: "nurl", Omitempty: true, Ptr: func(b *SeatOne) any { return &b.NURL }},
	})
	seatBidFields = jsonkit.Table([]jsonkit.Field[*SeatBid]{
		{Key: "seat", Ptr: func(sb *SeatBid) any { return &sb.Seat }},
		{Key: "bid", Ptr: func(sb *SeatBid) any { return &sb.Bid }, Kind: jsonkit.List(seatOneFields, nil)},
	})
	bidResponseFields = jsonkit.Table([]jsonkit.Field[*BidResponse]{
		{Key: "id", Ptr: func(r *BidResponse) any { return &r.ID }},
		{Key: "seatbid", Omitempty: true, Ptr: func(r *BidResponse) any { return &r.SeatBid }, Kind: jsonkit.List(seatBidFields, nil)},
		{Key: "cur", Omitempty: true, Ptr: func(r *BidResponse) any { return &r.Currency }},
		{Key: "nbr", Omitempty: true, Ptr: func(r *BidResponse) any { return &r.NBR }},
	})
)

// encBuf is the pooled per-worker encode buffer behind
// BidRequest.EncodedLen.
type encBuf struct{ b []byte }

var encPool = sync.Pool{New: func() any { return &encBuf{b: make([]byte, 0, 1024)} }}

// AppendJSON appends the request's JSON encoding to dst and returns the
// extended buffer. The output is byte-identical to json.Marshal(r); on
// the rare inputs the kernel cannot pin (NaN/Inf floats, Ext fragments
// that need compaction or escaping) it delegates to encoding/json,
// errors included, and on an error returns dst as it was.
func (r *BidRequest) AppendJSON(dst []byte) ([]byte, error) {
	return appendJSON(dst, bidRequestFields, r)
}

// AppendJSON appends the response's JSON encoding to dst, byte-pinned
// to json.Marshal(r) the same way BidRequest.AppendJSON is.
func (r *BidResponse) AppendJSON(dst []byte) ([]byte, error) {
	return appendJSON(dst, bidResponseFields, r)
}

func appendJSON[R any](dst []byte, fields []jsonkit.Field[*R], r *R) ([]byte, error) {
	if out, ok := jsonkit.AppendObject(dst, fields, r); ok {
		return out, nil
	}
	blob, err := json.Marshal(r) //hbvet:allow hotalloc sanctioned codec fallback: non-verbatim Ext or non-finite float, byte-pinned via stdlib
	if err != nil {
		return dst, err
	}
	return append(dst, blob...), nil
}

// EncodedLen encodes the request through a pooled buffer and returns
// the length of its body, allocating nothing once the buffer is warm. A
// sender learns what it puts on the wire, and whether the request
// encodes at all, without a string of the bytes: an in-process hop
// reads the typed request, and webreq.Request.Body builds the bytes for
// a reader that needs them.
func (r *BidRequest) EncodedLen() (int, error) {
	eb := encPool.Get().(*encBuf)
	b, err := r.AppendJSON(eb.b[:0])
	eb.b = b[:0]
	encPool.Put(eb)
	return len(b), err
}

// UnmarshalBidRequest decodes body into dst, whatever dst held before
// (slice capacity is retained for reuse across calls). Semantics are
// those of json.Unmarshal into a fresh BidRequest; the kernel bails to
// encoding/json whenever it is not certain of equivalence. Decoded
// strings are substrings of body.
func UnmarshalBidRequest(body string, dst *BidRequest) error {
	if jsonkit.Decode(body, nil, bidRequestFields, dst) {
		return nil
	}
	*dst = BidRequest{}
	if err := json.Unmarshal([]byte(body), dst); err != nil { //hbvet:allow hotalloc sanctioned codec fallback: foreign or unrecognized body decoded via stdlib
		return err
	}
	return nil
}

// UnmarshalBidResponse decodes body into dst, whatever dst held before
// (slice capacity retained, the seats' bid lists included). See
// UnmarshalBidRequest.
func UnmarshalBidResponse(body string, dst *BidResponse) error {
	if jsonkit.Decode(body, nil, bidResponseFields, dst) {
		return nil
	}
	return jsonUnmarshalBidResponse(body, dst)
}

// jsonUnmarshalBidResponse is the encoding/json fallback. json.Unmarshal
// merges into what dst holds (a reused slice keeps the fields of its old
// elements that the body leaves out), so dst is zeroed first, and a
// reused destination decodes as a fresh one.
func jsonUnmarshalBidResponse(body string, dst *BidResponse) error {
	*dst = BidResponse{}
	return json.Unmarshal([]byte(body), dst) //hbvet:allow hotalloc sanctioned codec fallback: foreign or unrecognized body decoded via stdlib
}
