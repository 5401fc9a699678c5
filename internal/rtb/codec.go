// Hand-rolled, zero-reflection JSON codec for the fixed OpenRTB shapes.
//
// The crawl hot path encodes one BidRequest and decodes one BidResponse
// per partner per visit (and the simulated partner does the mirror
// image), and after the second perf pass encoding/json's reflect-driven
// walk was the single largest remaining CPU head (~14% cumulative, see
// PERF.md). The shapes are closed — rtb.go owns them and nothing else
// extends them — so both directions can be hand-written:
//
//   - The encoder appends into a caller-supplied (pooled) []byte and is
//     byte-pinned to encoding/json's output: same field order, same
//     omitempty behavior, same string escaping (escapeHTML=true), same
//     ES6-style float formatting, same RawMessage compaction rules. The
//     golden tests in codec_test.go assert byte equality against
//     json.Marshal for every shape; the detector's payload heuristics
//     therefore see identical wire bytes.
//
//   - The decoder is a scanner over the body string for the known key
//     set. Anything it does not recognize with certainty — an unknown
//     or case-mismatched key, a duplicate key, a string escape, invalid
//     UTF-8, a number that does not fit the field — makes it bail out
//     and re-decode the whole body with encoding/json, so foreign
//     bodies still parse exactly as before. The fast path never guesses:
//     it either reproduces json.Unmarshal's result (fuzz-verified by
//     differential testing) or it defers to json.Unmarshal.
//
// Both fallbacks are the sanctioned exceptions to hbvet's "no
// encoding/json in the hot path" rule and carry //hbvet:allow markers.
package rtb

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// ---------------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------------

// encBuf is the pooled per-worker encode buffer behind
// BidRequest.EncodedLen and BidResponse.EncodeString.
type encBuf struct{ b []byte }

var encPool = sync.Pool{New: func() any { return &encBuf{b: make([]byte, 0, 1024)} }}

// hexDigits matches encoding/json's lowercase hex table.
const hexDigits = "0123456789abcdef"

// AppendJSONString appends s as a JSON string, replicating
// encoding/json's appendString with escapeHTML=true (json.Encoder's
// default): printable ASCII except `"`, `\`, `<`, `>`, `&` passes
// through, control characters get short escapes or \u00xx, invalid UTF-8
// becomes �, and U+2028/U+2029 are escaped for JSONP safety. The
// JSONL dataset writer shares it.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == 0x2028 || c == 0x2029 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	dst = append(dst, '"')
	return dst
}

// AppendJSONFloat appends f the way encoding/json's floatEncoder does:
// shortest representation, 'f' format except for very small/large
// magnitudes which use 'e' with the exponent's leading zero stripped.
// NaN and infinities are not representable; ok=false makes the caller
// fall back to json.Marshal so the error value matches stdlib exactly.
// The JSONL dataset writer shares it.
func AppendJSONFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	if n, ok := micros(f); ok {
		return appendMicros(dst, n), true
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// clean up e-09 to e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}

// micros returns the n with f == n/1e6 exactly, for a finite f with
// |f| >= 1e-6 and |n| < 1e15 — the prices and millisecond latencies the
// simulation writes. The division is correctly rounded, so the decimal
// n·10⁻⁶ parses back to f; it has at most 15 significant digits, and
// two such decimals never parse to the same float64, so no shorter
// decimal does. It is therefore the shortest round-trip form strconv
// would find, in the 'f' format encoding/json uses for this range.
func micros(f float64) (int64, bool) {
	if math.Abs(f) < 1e-6 {
		return 0, false
	}
	n := math.Round(f * 1e6)
	if math.Abs(n) >= 1e15 || n/1e6 != f {
		return 0, false
	}
	return int64(n), true
}

// appendMicros appends n·10⁻⁶ in decimal: the integer part, then the six
// implied decimals without their trailing zeros.
func appendMicros(dst []byte, n int64) []byte {
	if n < 0 {
		dst = append(dst, '-')
		n = -n
	}
	dst = strconv.AppendInt(dst, n/1e6, 10)
	frac := n % 1e6
	if frac == 0 {
		return dst
	}
	var b [7]byte
	b[0] = '.'
	for i := 6; i > 0; i-- {
		b[i] = byte('0' + frac%10)
		frac /= 10
	}
	end := len(b)
	for b[end-1] == '0' {
		end--
	}
	return append(dst, b[:end]...)
}

// extVerbatim reports whether raw can be appended to the output as-is
// and still match what encoding/json would emit for a RawMessage field.
// json compacts the fragment (stripping inter-token whitespace) and
// HTML-escapes `<`, `>`, `&` and U+2028/U+2029 wherever they appear, so
// any byte that could trigger either rewrite forces the stdlib path.
// 0xE2 is the lead byte of the U+2028/U+2029 encodings; rejecting it
// conservatively also bounces some legitimate multi-byte runes into the
// fallback, which is only a perf loss, never a correctness one. The
// json.Valid check mirrors stdlib's behavior of failing the whole
// Marshal on an invalid fragment.
func extVerbatim(raw []byte) bool {
	for _, c := range raw {
		switch c {
		case ' ', '\t', '\n', '\r', '<', '>', '&', 0xE2:
			return false
		}
	}
	return json.Valid(raw)
}

// AppendJSON appends the request's JSON encoding to dst and returns the
// extended buffer. The output is byte-identical to json.Marshal(r); on
// the rare inputs the fast path cannot pin (NaN/Inf floats, Ext
// fragments that need compaction or escaping) it rewinds and delegates
// to encoding/json, errors included.
func (r *BidRequest) AppendJSON(dst []byte) ([]byte, error) {
	mark := len(dst)
	out, ok := r.appendFast(dst)
	if ok {
		return out, nil
	}
	blob, err := json.Marshal(r) //hbvet:allow hotalloc sanctioned codec fallback: non-verbatim Ext or non-finite float, byte-pinned via stdlib
	if err != nil {
		return dst[:mark], err
	}
	return append(dst[:mark], blob...), nil
}

func (r *BidRequest) appendFast(dst []byte) ([]byte, bool) {
	ok := true
	dst = append(dst, `{"id":`...)
	dst = AppendJSONString(dst, r.ID)
	dst = append(dst, `,"imp":`...)
	if r.Imp == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range r.Imp {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, ok = r.Imp[i].appendFast(dst); !ok {
				return dst, false
			}
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"site":{"domain":`...)
	dst = AppendJSONString(dst, r.Site.Domain)
	dst = append(dst, `,"page":`...)
	dst = AppendJSONString(dst, r.Site.Page)
	if r.Site.Ref != "" {
		dst = append(dst, `,"ref":`...)
		dst = AppendJSONString(dst, r.Site.Ref)
	}
	dst = append(dst, `},"user":{`...)
	comma := false
	if r.User.BuyerUID != "" {
		dst = append(dst, `"buyeruid":`...)
		dst = AppendJSONString(dst, r.User.BuyerUID)
		comma = true
	}
	if len(r.User.Segments) > 0 {
		if comma {
			dst = append(dst, ',')
		}
		dst = append(dst, `"segments":[`...)
		for i, seg := range r.User.Segments {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = AppendJSONString(dst, seg)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, '}')
	if r.TMax != 0 {
		dst = append(dst, `,"tmax":`...)
		dst = strconv.AppendInt(dst, int64(r.TMax), 10)
	}
	if r.Test != 0 {
		dst = append(dst, `,"test":`...)
		dst = strconv.AppendInt(dst, int64(r.Test), 10)
	}
	if len(r.Ext) > 0 {
		if !extVerbatim(r.Ext) {
			return dst, false
		}
		dst = append(dst, `,"ext":`...)
		dst = append(dst, r.Ext...)
	}
	dst = append(dst, '}')
	return dst, true
}

func (imp *Impression) appendFast(dst []byte) ([]byte, bool) {
	dst = append(dst, `{"id":`...)
	dst = AppendJSONString(dst, imp.ID)
	dst = append(dst, `,"banner":{"format":`...)
	if imp.Banner.Format == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range imp.Banner.Format {
			if i > 0 {
				dst = append(dst, ',')
			}
			f := &imp.Banner.Format[i]
			dst = append(dst, `{"w":`...)
			dst = strconv.AppendInt(dst, int64(f.W), 10)
			dst = append(dst, `,"h":`...)
			dst = strconv.AppendInt(dst, int64(f.H), 10)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, '}')
	if imp.FloorCPM != 0 {
		dst = append(dst, `,"bidfloor":`...)
		var ok bool
		if dst, ok = AppendJSONFloat(dst, imp.FloorCPM); !ok {
			return dst, false
		}
	}
	if imp.TagID != "" {
		dst = append(dst, `,"tagid":`...)
		dst = AppendJSONString(dst, imp.TagID)
	}
	dst = append(dst, '}')
	return dst, true
}

// AppendJSON appends the response's JSON encoding to dst, byte-pinned
// to json.Marshal(r) the same way BidRequest.AppendJSON is.
func (r *BidResponse) AppendJSON(dst []byte) ([]byte, error) {
	mark := len(dst)
	out, ok := r.appendFast(dst)
	if ok {
		return out, nil
	}
	blob, err := json.Marshal(r) //hbvet:allow hotalloc sanctioned codec fallback: non-finite float price, byte-pinned via stdlib
	if err != nil {
		return dst[:mark], err
	}
	return append(dst[:mark], blob...), nil
}

func (r *BidResponse) appendFast(dst []byte) ([]byte, bool) {
	dst = append(dst, `{"id":`...)
	dst = AppendJSONString(dst, r.ID)
	if len(r.SeatBid) > 0 {
		dst = append(dst, `,"seatbid":[`...)
		for i := range r.SeatBid {
			if i > 0 {
				dst = append(dst, ',')
			}
			sb := &r.SeatBid[i]
			dst = append(dst, `{"seat":`...)
			dst = AppendJSONString(dst, sb.Seat)
			dst = append(dst, `,"bid":`...)
			if sb.Bid == nil {
				dst = append(dst, "null"...)
			} else {
				dst = append(dst, '[')
				for j := range sb.Bid {
					if j > 0 {
						dst = append(dst, ',')
					}
					var ok bool
					if dst, ok = sb.Bid[j].appendFast(dst); !ok {
						return dst, false
					}
				}
				dst = append(dst, ']')
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if r.Currency != "" {
		dst = append(dst, `,"cur":`...)
		dst = AppendJSONString(dst, r.Currency)
	}
	if r.NBR != 0 {
		dst = append(dst, `,"nbr":`...)
		dst = strconv.AppendInt(dst, int64(r.NBR), 10)
	}
	dst = append(dst, '}')
	return dst, true
}

func (b *SeatOne) appendFast(dst []byte) ([]byte, bool) {
	dst = append(dst, `{"impid":`...)
	dst = AppendJSONString(dst, b.ImpID)
	dst = append(dst, `,"price":`...)
	var ok bool
	if dst, ok = AppendJSONFloat(dst, b.Price); !ok {
		return dst, false
	}
	dst = append(dst, `,"w":`...)
	dst = strconv.AppendInt(dst, int64(b.W), 10)
	dst = append(dst, `,"h":`...)
	dst = strconv.AppendInt(dst, int64(b.H), 10)
	if b.AdMarkup != "" {
		dst = append(dst, `,"adm":`...)
		dst = AppendJSONString(dst, b.AdMarkup)
	}
	if b.CrID != "" {
		dst = append(dst, `,"crid":`...)
		dst = AppendJSONString(dst, b.CrID)
	}
	if b.DealID != "" {
		dst = append(dst, `,"dealid":`...)
		dst = AppendJSONString(dst, b.DealID)
	}
	if b.NURL != "" {
		dst = append(dst, `,"nurl":`...)
		dst = AppendJSONString(dst, b.NURL)
	}
	dst = append(dst, '}')
	return dst, true
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

// EncodeString renders the response body through the pooled encode
// buffer and returns it as a string: one allocation (the string copy)
// per call in the common case versus the many a reflect-driven Marshal
// performs.
func (r *BidResponse) EncodeString() (string, error) {
	eb := encPool.Get().(*encBuf)
	b, err := r.AppendJSON(eb.b[:0])
	var s string
	if err == nil {
		s = string(b)
	}
	eb.b = b[:0]
	encPool.Put(eb)
	return s, err
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

// dec is a cursor over the body. Decoded strings are substrings of s
// (zero-copy), which is why the decode APIs take string bodies: the
// webreq layer stores bodies as strings already, so no []byte round
// trip and no per-string allocation on the happy path.
type dec struct {
	s string
	i int
}

func (d *dec) ws() {
	for d.i < len(d.s) {
		switch d.s[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

func (d *dec) eat(c byte) bool {
	if d.i < len(d.s) && d.s[d.i] == c {
		d.i++
		return true
	}
	return false
}

func (d *dec) peek() byte {
	if d.i < len(d.s) {
		return d.s[d.i]
	}
	return 0
}

func (d *dec) lit(kw string) bool {
	if len(d.s)-d.i >= len(kw) && d.s[d.i:d.i+len(kw)] == kw {
		d.i += len(kw)
		return true
	}
	return false
}

// str scans a string value with no escapes and valid UTF-8, returning
// it as a substring of the body. Escapes, control bytes and invalid
// UTF-8 all force the stdlib fallback (json unescapes the first and
// rewrites the last to U+FFFD; reproducing either would allocate).
func (d *dec) str() (string, bool) {
	if !d.eat('"') {
		return "", false
	}
	start := d.i
	for d.i < len(d.s) {
		c := d.s[d.i]
		if c == '"' {
			s := d.s[start:d.i]
			d.i++
			return s, true
		}
		if c == '\\' || c < 0x20 {
			return "", false
		}
		if c < utf8.RuneSelf {
			d.i++
			continue
		}
		r, size := utf8.DecodeRuneInString(d.s[d.i:])
		if r == utf8.RuneError && size == 1 {
			return "", false
		}
		d.i += size
	}
	return "", false
}

// numToken scans one number per the strict JSON grammar and returns the
// token text; anything looser (leading zeros, bare dots, hex) is left
// to the fallback, which will reject it exactly as json does.
func (d *dec) numToken() (string, bool) {
	start := d.i
	d.eat('-')
	switch {
	case d.eat('0'):
	case d.peek() >= '1' && d.peek() <= '9':
		for d.i < len(d.s) && d.s[d.i] >= '0' && d.s[d.i] <= '9' {
			d.i++
		}
	default:
		return "", false
	}
	if d.eat('.') {
		if !(d.peek() >= '0' && d.peek() <= '9') {
			return "", false
		}
		for d.i < len(d.s) && d.s[d.i] >= '0' && d.s[d.i] <= '9' {
			d.i++
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.i++
		if c := d.peek(); c == '+' || c == '-' {
			d.i++
		}
		if !(d.peek() >= '0' && d.peek() <= '9') {
			return "", false
		}
		for d.i < len(d.s) && d.s[d.i] >= '0' && d.s[d.i] <= '9' {
			d.i++
		}
	}
	return d.s[start:d.i], true
}

// intValue decodes an int field. json's literalStore uses ParseInt, so
// fractional or exponent forms (1.0, 1e2) are decode errors there — the
// fallback reproduces them.
func (d *dec) intValue() (int, bool) {
	if d.peek() == 'n' {
		return 0, d.lit("null")
	}
	tok, ok := d.numToken()
	if !ok || strings.ContainsAny(tok, ".eE") {
		return 0, false
	}
	v, err := strconv.ParseInt(tok, 10, 64)
	if err != nil {
		return 0, false
	}
	n := int(v)
	if int64(n) != v {
		return 0, false
	}
	return n, true
}

func (d *dec) floatValue() (float64, bool) {
	if d.peek() == 'n' {
		return 0, d.lit("null")
	}
	tok, ok := d.numToken()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// strValue decodes a string field, allowing null (which leaves the
// fresh field zero, as json does).
func (d *dec) strValue() (string, bool) {
	if d.peek() == 'n' {
		if d.lit("null") {
			return "", true
		}
		return "", false
	}
	return d.str()
}

// skipString skips one string token, validating escape sequences the
// way encoding/json's scanner does (named escapes and \uXXXX only, no
// raw control bytes). Unlike str it accepts escapes — the bytes are
// kept verbatim, so no unescaping is needed.
func (d *dec) skipString() bool {
	if !d.eat('"') {
		return false
	}
	for d.i < len(d.s) {
		c := d.s[d.i]
		switch {
		case c == '"':
			d.i++
			return true
		case c == '\\':
			d.i++
			if d.i >= len(d.s) {
				return false
			}
			switch d.s[d.i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.i++
			case 'u':
				d.i++
				if len(d.s)-d.i < 4 {
					return false
				}
				for k := 0; k < 4; k++ {
					if !isHexDigit(d.s[d.i]) {
						return false
					}
					d.i++
				}
			default:
				return false
			}
		case c < 0x20:
			return false
		default:
			d.i++
		}
	}
	return false
}

func isHexDigit(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

// skipValue validates and skips one JSON value; it is used to capture
// the Ext span verbatim, so it enforces exactly what encoding/json's
// scanner would accept (RawMessage keeps bytes verbatim but the scan
// still validates them). maxSkipDepth bounds recursion so adversarial
// nesting lands in the fallback instead of the goroutine stack; the
// stdlib's own limit is far higher, so over-deep-but-valid input is a
// perf loss, never a behavior change.
const maxSkipDepth = 64

func (d *dec) skipValue(depth int) bool {
	if depth > maxSkipDepth {
		return false
	}
	switch d.peek() {
	case '"':
		return d.skipString()
	case '{':
		d.i++
		d.ws()
		if d.eat('}') {
			return true
		}
		for {
			d.ws()
			if !d.skipString() {
				return false
			}
			d.ws()
			if !d.eat(':') {
				return false
			}
			d.ws()
			if !d.skipValue(depth + 1) {
				return false
			}
			d.ws()
			if d.eat(',') {
				continue
			}
			return d.eat('}')
		}
	case '[':
		d.i++
		d.ws()
		if d.eat(']') {
			return true
		}
		for {
			d.ws()
			if !d.skipValue(depth + 1) {
				return false
			}
			d.ws()
			if d.eat(',') {
				continue
			}
			return d.eat(']')
		}
	case 't':
		return d.lit("true")
	case 'f':
		return d.lit("false")
	case 'n':
		return d.lit("null")
	default:
		_, ok := d.numToken()
		return ok
	}
}

// UnmarshalBidRequest decodes body into dst, resetting dst first (slice
// capacity is retained for reuse across calls). Semantics are those of
// json.Unmarshal into a fresh BidRequest; the scanner bails to
// encoding/json whenever it is not certain of equivalence.
func UnmarshalBidRequest(body string, dst *BidRequest) error {
	impScratch := dst.Imp[:0]
	extScratch := dst.Ext[:0]
	*dst = BidRequest{}
	if fastDecodeBidRequest(body, dst, impScratch, extScratch) {
		return nil
	}
	*dst = BidRequest{}
	if err := json.Unmarshal([]byte(body), dst); err != nil { //hbvet:allow hotalloc sanctioned codec fallback: foreign or unrecognized body decoded via stdlib
		return err
	}
	return nil
}

// UnmarshalBidResponse decodes body into dst, resetting dst first
// (slice capacity retained, the seats' bid lists included). See
// UnmarshalBidRequest.
func UnmarshalBidResponse(body string, dst *BidResponse) error {
	sbScratch := dst.SeatBid[:0]
	*dst = BidResponse{}
	if fastDecodeBidResponse(body, dst, sbScratch) {
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

// Duplicate-key bitmasks: json's behavior on a repeated key (overwrite
// for scalars, element-wise merge for slices) is subtle enough that the
// scanner refuses and lets the stdlib handle it.

func fastDecodeBidRequest(s string, dst *BidRequest, impScratch []Impression, extScratch json.RawMessage) bool {
	d := dec{s: s}
	d.ws()
	if !d.eat('{') {
		return false
	}
	d.ws()
	if !d.eat('}') {
		var seen uint8
		for {
			d.ws()
			key, ok := d.str()
			if !ok {
				return false
			}
			d.ws()
			if !d.eat(':') {
				return false
			}
			d.ws()
			var bit uint8
			switch key {
			case "id":
				bit = 1 << 0
				if dst.ID, ok = d.strValue(); !ok {
					return false
				}
			case "imp":
				bit = 1 << 1
				if dst.Imp, ok = decodeImps(&d, impScratch); !ok {
					return false
				}
			case "site":
				bit = 1 << 2
				if !decodeSite(&d, &dst.Site) {
					return false
				}
			case "user":
				bit = 1 << 3
				if !decodeUser(&d, &dst.User) {
					return false
				}
			case "tmax":
				bit = 1 << 4
				if dst.TMax, ok = d.intValue(); !ok {
					return false
				}
			case "test":
				bit = 1 << 5
				if dst.Test, ok = d.intValue(); !ok {
					return false
				}
			case "ext":
				bit = 1 << 6
				start := d.i
				if !d.skipValue(0) {
					return false
				}
				// RawMessage's UnmarshalJSON stores the raw span
				// verbatim — including a literal "null". skipValue
				// validated the span, so nothing json would reject
				// reaches this copy.
				dst.Ext = append(extScratch[:0], d.s[start:d.i]...)
			default:
				return false
			}
			if seen&bit != 0 {
				return false
			}
			seen |= bit
			d.ws()
			if d.eat(',') {
				continue
			}
			if d.eat('}') {
				break
			}
			return false
		}
	}
	d.ws()
	return d.i == len(d.s)
}

func decodeImps(d *dec, scratch []Impression) ([]Impression, bool) {
	if d.peek() == 'n' {
		return nil, d.lit("null")
	}
	if !d.eat('[') {
		return nil, false
	}
	imps := scratch[:0]
	d.ws()
	if d.eat(']') {
		if imps == nil {
			imps = make([]Impression, 0)
		}
		return imps, true
	}
	for {
		d.ws()
		var imp *Impression
		if len(imps) < cap(imps) {
			imps = imps[:len(imps)+1]
			imp = &imps[len(imps)-1]
			fmtScratch := imp.Banner.Format[:0]
			*imp = Impression{}
			imp.Banner.Format = fmtScratch // consumed (and re-zeroed) by decodeImp
		} else {
			imps = append(imps, Impression{})
			imp = &imps[len(imps)-1]
		}
		if !decodeImp(d, imp) {
			return nil, false
		}
		d.ws()
		if d.eat(',') {
			continue
		}
		if d.eat(']') {
			return imps, true
		}
		return nil, false
	}
}

func decodeImp(d *dec, imp *Impression) bool {
	fmtScratch := imp.Banner.Format[:0]
	imp.Banner.Format = nil
	if d.peek() == 'n' {
		return d.lit("null")
	}
	if !d.eat('{') {
		return false
	}
	d.ws()
	if d.eat('}') {
		return true
	}
	var seen uint8
	for {
		d.ws()
		key, ok := d.str()
		if !ok {
			return false
		}
		d.ws()
		if !d.eat(':') {
			return false
		}
		d.ws()
		var bit uint8
		switch key {
		case "id":
			bit = 1 << 0
			if imp.ID, ok = d.strValue(); !ok {
				return false
			}
		case "banner":
			bit = 1 << 1
			if !decodeBanner(d, &imp.Banner, fmtScratch) {
				return false
			}
		case "bidfloor":
			bit = 1 << 2
			if imp.FloorCPM, ok = d.floatValue(); !ok {
				return false
			}
		case "tagid":
			bit = 1 << 3
			if imp.TagID, ok = d.strValue(); !ok {
				return false
			}
		default:
			return false
		}
		if seen&bit != 0 {
			return false
		}
		seen |= bit
		d.ws()
		if d.eat(',') {
			continue
		}
		return d.eat('}')
	}
}

func decodeBanner(d *dec, b *Banner, fmtScratch []Format) bool {
	if d.peek() == 'n' {
		return d.lit("null")
	}
	if !d.eat('{') {
		return false
	}
	d.ws()
	if d.eat('}') {
		return true
	}
	seenFormat := false
	for {
		d.ws()
		key, ok := d.str()
		if !ok {
			return false
		}
		d.ws()
		if !d.eat(':') {
			return false
		}
		d.ws()
		if key != "format" || seenFormat {
			return false
		}
		seenFormat = true
		if b.Format, ok = decodeFormats(d, fmtScratch); !ok {
			return false
		}
		d.ws()
		if d.eat(',') {
			continue
		}
		return d.eat('}')
	}
}

func decodeFormats(d *dec, scratch []Format) ([]Format, bool) {
	if d.peek() == 'n' {
		return nil, d.lit("null")
	}
	if !d.eat('[') {
		return nil, false
	}
	fs := scratch[:0]
	d.ws()
	if d.eat(']') {
		if fs == nil {
			fs = make([]Format, 0)
		}
		return fs, true
	}
	for {
		d.ws()
		var f Format
		if !decodeFormat(d, &f) {
			return nil, false
		}
		fs = append(fs, f)
		d.ws()
		if d.eat(',') {
			continue
		}
		if d.eat(']') {
			return fs, true
		}
		return nil, false
	}
}

func decodeFormat(d *dec, f *Format) bool {
	if d.peek() == 'n' {
		return d.lit("null")
	}
	if !d.eat('{') {
		return false
	}
	d.ws()
	if d.eat('}') {
		return true
	}
	var seen uint8
	for {
		d.ws()
		key, ok := d.str()
		if !ok {
			return false
		}
		d.ws()
		if !d.eat(':') {
			return false
		}
		d.ws()
		var bit uint8
		switch key {
		case "w":
			bit = 1 << 0
			if f.W, ok = d.intValue(); !ok {
				return false
			}
		case "h":
			bit = 1 << 1
			if f.H, ok = d.intValue(); !ok {
				return false
			}
		default:
			return false
		}
		if seen&bit != 0 {
			return false
		}
		seen |= bit
		d.ws()
		if d.eat(',') {
			continue
		}
		return d.eat('}')
	}
}

func decodeSite(d *dec, site *Site) bool {
	if d.peek() == 'n' {
		return d.lit("null")
	}
	if !d.eat('{') {
		return false
	}
	d.ws()
	if d.eat('}') {
		return true
	}
	var seen uint8
	for {
		d.ws()
		key, ok := d.str()
		if !ok {
			return false
		}
		d.ws()
		if !d.eat(':') {
			return false
		}
		d.ws()
		var bit uint8
		switch key {
		case "domain":
			bit = 1 << 0
			if site.Domain, ok = d.strValue(); !ok {
				return false
			}
		case "page":
			bit = 1 << 1
			if site.Page, ok = d.strValue(); !ok {
				return false
			}
		case "ref":
			bit = 1 << 2
			if site.Ref, ok = d.strValue(); !ok {
				return false
			}
		default:
			return false
		}
		if seen&bit != 0 {
			return false
		}
		seen |= bit
		d.ws()
		if d.eat(',') {
			continue
		}
		return d.eat('}')
	}
}

func decodeUser(d *dec, u *User) bool {
	if d.peek() == 'n' {
		return d.lit("null")
	}
	if !d.eat('{') {
		return false
	}
	d.ws()
	if d.eat('}') {
		return true
	}
	var seen uint8
	for {
		d.ws()
		key, ok := d.str()
		if !ok {
			return false
		}
		d.ws()
		if !d.eat(':') {
			return false
		}
		d.ws()
		var bit uint8
		switch key {
		case "buyeruid":
			bit = 1 << 0
			if u.BuyerUID, ok = d.strValue(); !ok {
				return false
			}
		case "segments":
			bit = 1 << 1
			if u.Segments, ok = decodeStrings(d); !ok {
				return false
			}
		default:
			return false
		}
		if seen&bit != 0 {
			return false
		}
		seen |= bit
		d.ws()
		if d.eat(',') {
			continue
		}
		return d.eat('}')
	}
}

func decodeStrings(d *dec) ([]string, bool) {
	if d.peek() == 'n' {
		return nil, d.lit("null")
	}
	if !d.eat('[') {
		return nil, false
	}
	d.ws()
	if d.eat(']') {
		return make([]string, 0), true
	}
	var out []string
	for {
		d.ws()
		s, ok := d.strValue()
		if !ok {
			return nil, false
		}
		out = append(out, s)
		d.ws()
		if d.eat(',') {
			continue
		}
		if d.eat(']') {
			return out, true
		}
		return nil, false
	}
}

func fastDecodeBidResponse(s string, dst *BidResponse, sbScratch []SeatBid) bool {
	d := dec{s: s}
	d.ws()
	if !d.eat('{') {
		return false
	}
	d.ws()
	if !d.eat('}') {
		var seen uint8
		for {
			d.ws()
			key, ok := d.str()
			if !ok {
				return false
			}
			d.ws()
			if !d.eat(':') {
				return false
			}
			d.ws()
			var bit uint8
			switch key {
			case "id":
				bit = 1 << 0
				if dst.ID, ok = d.strValue(); !ok {
					return false
				}
			case "seatbid":
				bit = 1 << 1
				if dst.SeatBid, ok = decodeSeatBids(&d, sbScratch); !ok {
					return false
				}
			case "cur":
				bit = 1 << 2
				if dst.Currency, ok = d.strValue(); !ok {
					return false
				}
			case "nbr":
				bit = 1 << 3
				if dst.NBR, ok = d.intValue(); !ok {
					return false
				}
			default:
				return false
			}
			if seen&bit != 0 {
				return false
			}
			seen |= bit
			d.ws()
			if d.eat(',') {
				continue
			}
			if d.eat('}') {
				break
			}
			return false
		}
	}
	d.ws()
	return d.i == len(d.s)
}

func decodeSeatBids(d *dec, scratch []SeatBid) ([]SeatBid, bool) {
	if d.peek() == 'n' {
		return nil, d.lit("null")
	}
	if !d.eat('[') {
		return nil, false
	}
	sbs := scratch[:0]
	d.ws()
	if d.eat(']') {
		if sbs == nil {
			sbs = make([]SeatBid, 0)
		}
		return sbs, true
	}
	for {
		d.ws()
		var sb *SeatBid
		if len(sbs) < cap(sbs) {
			// Reuse the backing array and the element's inner Bid
			// capacity from the previous decode into this scratch.
			sbs = sbs[:len(sbs)+1]
			sb = &sbs[len(sbs)-1]
			bidScratch := sb.Bid[:0]
			*sb = SeatBid{}
			sb.Bid = bidScratch // consumed by decodeSeatBid
		} else {
			sbs = append(sbs, SeatBid{})
			sb = &sbs[len(sbs)-1]
		}
		if !decodeSeatBid(d, sb) {
			return nil, false
		}
		d.ws()
		if d.eat(',') {
			continue
		}
		if d.eat(']') {
			return sbs, true
		}
		return nil, false
	}
}

func decodeSeatBid(d *dec, sb *SeatBid) bool {
	bidScratch := sb.Bid[:0]
	sb.Bid = nil
	if d.peek() == 'n' {
		return d.lit("null")
	}
	if !d.eat('{') {
		return false
	}
	d.ws()
	if d.eat('}') {
		return true
	}
	var seen uint8
	for {
		d.ws()
		key, ok := d.str()
		if !ok {
			return false
		}
		d.ws()
		if !d.eat(':') {
			return false
		}
		d.ws()
		var bit uint8
		switch key {
		case "seat":
			bit = 1 << 0
			if sb.Seat, ok = d.strValue(); !ok {
				return false
			}
		case "bid":
			bit = 1 << 1
			if sb.Bid, ok = decodeSeatOnes(d, bidScratch); !ok {
				return false
			}
		default:
			return false
		}
		if seen&bit != 0 {
			return false
		}
		seen |= bit
		d.ws()
		if d.eat(',') {
			continue
		}
		return d.eat('}')
	}
}

func decodeSeatOnes(d *dec, scratch []SeatOne) ([]SeatOne, bool) {
	if d.peek() == 'n' {
		return nil, d.lit("null")
	}
	if !d.eat('[') {
		return nil, false
	}
	bids := scratch[:0]
	d.ws()
	if d.eat(']') {
		if bids == nil {
			bids = make([]SeatOne, 0)
		}
		return bids, true
	}
	for {
		d.ws()
		if len(bids) < cap(bids) {
			bids = bids[:len(bids)+1]
			bids[len(bids)-1] = SeatOne{}
		} else {
			bids = append(bids, SeatOne{})
		}
		if !decodeSeatOne(d, &bids[len(bids)-1]) {
			return nil, false
		}
		d.ws()
		if d.eat(',') {
			continue
		}
		if d.eat(']') {
			return bids, true
		}
		return nil, false
	}
}

func decodeSeatOne(d *dec, b *SeatOne) bool {
	if d.peek() == 'n' {
		return d.lit("null")
	}
	if !d.eat('{') {
		return false
	}
	d.ws()
	if d.eat('}') {
		return true
	}
	var seen uint8
	for {
		d.ws()
		key, ok := d.str()
		if !ok {
			return false
		}
		d.ws()
		if !d.eat(':') {
			return false
		}
		d.ws()
		var bit uint8
		switch key {
		case "impid":
			bit = 1 << 0
			if b.ImpID, ok = d.strValue(); !ok {
				return false
			}
		case "price":
			bit = 1 << 1
			if b.Price, ok = d.floatValue(); !ok {
				return false
			}
		case "w":
			bit = 1 << 2
			if b.W, ok = d.intValue(); !ok {
				return false
			}
		case "h":
			bit = 1 << 3
			if b.H, ok = d.intValue(); !ok {
				return false
			}
		case "adm":
			bit = 1 << 4
			if b.AdMarkup, ok = d.strValue(); !ok {
				return false
			}
		case "crid":
			bit = 1 << 5
			if b.CrID, ok = d.strValue(); !ok {
				return false
			}
		case "dealid":
			bit = 1 << 6
			if b.DealID, ok = d.strValue(); !ok {
				return false
			}
		case "nurl":
			bit = 1 << 7
			if b.NURL, ok = d.strValue(); !ok {
				return false
			}
		default:
			return false
		}
		if seen&bit != 0 {
			return false
		}
		seen |= bit
		d.ws()
		if d.eat(',') {
			continue
		}
		return d.eat('}')
	}
}
