package dataset

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// The JSONL read path's fast decoder (DESIGN.md §5.4). ReadStream hands
// every line to lineDecoder.decode first. It parses the shape Writer
// emits, without reflection, and is all-or-nothing: whenever it is not
// certain that json.Unmarshal into a fresh SiteRecord would give the
// same record, it declines and ReadStream decodes that line with
// encoding/json instead. It declines on
//
//   - an unknown or case-mismatched key (json folds case);
//   - a duplicate key, map keys included (json overwrites or merges);
//   - null;
//   - any string escape, control byte or invalid UTF-8 (json unescapes
//     or rewrites to U+FFFD);
//   - a number json would reject for its field: a fraction or exponent
//     in an int, overflow, an out-of-range float;
//   - anything after the record but whitespace.
//
// The fallback is the reference implementation: every error a caller
// sees comes from it, so error messages do not depend on this file.

const (
	// maxInterned caps the intern table of one ReadStream call, and
	// maxInternLen the strings it takes, so hostile input cannot grow
	// it: past either bound a vocabulary string is copied instead.
	maxInterned  = 1 << 12
	maxInternLen = 64
)

// lineDecoder is the per-stream state of the fast path. Decoded strings
// never alias the line, which is the scanner's reused buffer: the
// per-site strings (domain, auction id, err, panic site) are copied, and
// the closed vocabularies (partner slugs, libraries, facets, sizes,
// sources, ad units) are interned, one copy per stream.
type lineDecoder struct {
	b []byte
	i int

	intern map[string]string

	// Scratch reused line after line. Decoded slices are copied out of
	// it at their final length, so no slice a record holds regrows or
	// shares memory with the next record.
	auctions []AuctionRecord
	bidSpans []span // per auction: its bids in bids, lo < 0 if absent
	bids     []BidRecord
	strs     []string
	floats   []float64
	latency  []keySpan // partner_latency_ms members: values in floats
}

type span struct{ lo, hi int }

type keySpan struct {
	key    string
	lo, hi int
}

func newLineDecoder() *lineDecoder {
	return &lineDecoder{intern: make(map[string]string)}
}

// decode fills the fresh record rec from line and reports whether it
// could. On false rec holds partial state and must be discarded.
func (d *lineDecoder) decode(line []byte, rec *SiteRecord) bool {
	d.b, d.i = line, 0
	d.ws()
	ok := decodeObject(d, siteFields, rec) && d.end()
	d.b = nil
	return ok
}

// decodeObject decodes one object into r, dispatching each member on
// the field table the writer encodes from. A key the table lacks
// declines (json folds case and ignores unknown keys), and so does a
// key seen twice: a member's bit in the duplicate mask is its index.
func decodeObject[R any](d *lineDecoder, fields []field[R], r *R) bool {
	if !d.eat('{') {
		return false
	}
	d.ws()
	if d.eat('}') {
		return true
	}
	var seen uint32
	next := 0
	for {
		i := next
		if !expectKey(d, fields, i) {
			key, ok := d.str()
			if !ok {
				return false
			}
			if i = lookupField(fields, key, next); i < 0 {
				return false
			}
		}
		d.ws()
		if !d.eat(':') {
			return false
		}
		d.ws()
		if seen&(1<<i) != 0 {
			return false
		}
		seen |= 1 << i
		next = i + 1
		if !d.value(fields[i].ptr(r), fields[i].interned) {
			return false
		}
		if more, ok := d.next('}'); !more {
			return ok
		}
	}
}

// expectKey consumes the key of fields[i], the member the writer puts
// next, when the cursor sits on it as a plain JSON string: a key the
// writer's order predicts costs one comparison instead of a string
// scan. Table keys hold no byte JSON escapes, so a match is that key.
func expectKey[R any](d *lineDecoder, fields []field[R], i int) bool {
	if i >= len(fields) {
		return false
	}
	k := fields[i].key
	end := d.i + len(k) + 2
	if end > len(d.b) || d.b[d.i] != '"' || d.b[end-1] != '"' || string(d.b[d.i+1:end-1]) != k {
		return false
	}
	d.i = end
	return true
}

// lookupField returns the index of the member named key, or -1. The
// search starts at hint, the index after the previous member's: a line
// in the writer's order finds each key on the first comparison.
func lookupField[R any](fields []field[R], key []byte, hint int) int {
	for j := range fields {
		i := hint + j
		if i >= len(fields) {
			i -= len(fields)
		}
		if k := fields[i].key; len(k) == len(key) && k[0] == key[0] && k == string(key) {
			return i
		}
	}
	return -1
}

// value decodes the member's value into the field p points to.
func (d *lineDecoder) value(p any, interned bool) (ok bool) {
	switch v := p.(type) {
	case *string:
		if interned {
			*v, ok = d.vocab()
		} else {
			*v, ok = d.copied()
		}
	case *int:
		*v, ok = d.int()
	case *bool:
		*v, ok = d.bool()
	case *float64:
		*v, ok = d.float()
	case *[]string:
		*v, ok = d.vocabs()
	case *[]AuctionRecord:
		*v, ok = d.auctionList()
	case *[]BidRecord:
		ok = d.bidList()
	case *map[string][]float64:
		*v, ok = d.latencyMap()
	case *map[string]int:
		*v, ok = d.errorMap()
	case *TrafficRecord:
		ok = decodeObject(d, trafficFields, v)
	}
	return ok
}

// auctionList decodes the auctions array. Every auction's bids land in
// one backing array sized to the record's bid count; each auction gets
// its own full slice of it (cap == len), so an append by a consumer
// copies instead of overwriting a neighbour.
func (d *lineDecoder) auctionList() ([]AuctionRecord, bool) {
	d.auctions, d.bidSpans, d.bids = d.auctions[:0], d.bidSpans[:0], d.bids[:0]
	ok := d.array(func() bool {
		d.auctions = append(d.auctions, AuctionRecord{})
		d.bidSpans = append(d.bidSpans, span{lo: -1})
		return decodeObject(d, auctionFields, &d.auctions[len(d.auctions)-1])
	})
	if !ok {
		return nil, false
	}
	out := make([]AuctionRecord, len(d.auctions))
	copy(out, d.auctions)
	bids := make([]BidRecord, len(d.bids))
	copy(bids, d.bids)
	for k, sp := range d.bidSpans {
		if sp.lo >= 0 {
			out[k].Bids = bids[sp.lo:sp.hi:sp.hi]
		}
	}
	return out, true
}

// bidList decodes the bids of the auction being decoded, the last of
// d.auctions, into d.bids and records their span; auctionList hands
// them their final slice.
func (d *lineDecoder) bidList() bool {
	lo := len(d.bids)
	ok := d.array(func() bool {
		d.bids = append(d.bids, BidRecord{})
		return decodeObject(d, bidFields, &d.bids[len(d.bids)-1])
	})
	d.bidSpans[len(d.bidSpans)-1] = span{lo, len(d.bids)}
	return ok
}

// latencyMap decodes partner_latency_ms. All of the record's latencies
// share one backing array, each key holding a full slice of it.
func (d *lineDecoder) latencyMap() (map[string][]float64, bool) {
	d.latency, d.floats = d.latency[:0], d.floats[:0]
	ok := d.object(func(key []byte) (uint32, bool) {
		lo := len(d.floats)
		ok := d.array(func() bool {
			f, ok := d.float()
			d.floats = append(d.floats, f)
			return ok
		})
		d.latency = append(d.latency, keySpan{d.interned(key), lo, len(d.floats)})
		return 0, ok
	})
	if !ok {
		return nil, false
	}
	vals := make([]float64, len(d.floats))
	copy(vals, d.floats)
	m := make(map[string][]float64, len(d.latency))
	for _, ks := range d.latency {
		if _, dup := m[ks.key]; dup {
			return nil, false
		}
		m[ks.key] = vals[ks.lo:ks.hi:ks.hi]
	}
	return m, true
}

func (d *lineDecoder) errorMap() (map[string]int, bool) {
	m := make(map[string]int)
	ok := d.object(func(key []byte) (uint32, bool) {
		if _, dup := m[string(key)]; dup {
			return 0, false
		}
		n, ok := d.int()
		m[d.interned(key)] = n
		return 0, ok
	})
	return m, ok
}

// object decodes one JSON object. For each member it calls field with
// the cursor on the value; field decodes the value and returns the
// member's bit in the object's duplicate mask (map members return 0 and
// check duplicates themselves).
func (d *lineDecoder) object(field func(key []byte) (uint32, bool)) bool {
	if !d.eat('{') {
		return false
	}
	d.ws()
	if d.eat('}') {
		return true
	}
	var seen uint32
	for {
		key, ok := d.str()
		if !ok {
			return false
		}
		d.ws()
		if !d.eat(':') {
			return false
		}
		d.ws()
		bit, ok := field(key)
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if more, ok := d.next('}'); !more {
			return ok
		}
	}
}

// array decodes one JSON array, calling elem with the cursor on each
// element. null is not an array: json leaves the field nil, which the
// fallback reproduces.
func (d *lineDecoder) array(elem func() bool) bool {
	if !d.eat('[') {
		return false
	}
	d.ws()
	if d.eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if more, ok := d.next(']'); !more {
			return ok
		}
	}
}

// next consumes the separator after a member or element: more is true
// after a comma (the cursor then sits on the next token), false with ok
// after the closing byte.
func (d *lineDecoder) next(closing byte) (more, ok bool) {
	d.ws()
	if d.i < len(d.b) {
		switch d.b[d.i] {
		case ',':
			d.i++
			d.ws()
			return true, true
		case closing:
			d.i++
			return false, true
		}
	}
	return false, false
}

func (d *lineDecoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// end reports whether only whitespace is left.
func (d *lineDecoder) end() bool {
	d.ws()
	return d.i == len(d.b)
}

func (d *lineDecoder) eat(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

func (d *lineDecoder) lit(kw string) bool {
	if len(d.b)-d.i >= len(kw) && string(d.b[d.i:d.i+len(kw)]) == kw {
		d.i += len(kw)
		return true
	}
	return false
}

func (d *lineDecoder) bool() (v, ok bool) {
	if d.lit("true") {
		return true, true
	}
	return false, d.lit("false")
}

// str scans a string with no escapes, no control bytes and valid UTF-8,
// the strings json hands back byte for byte, and returns its bytes in
// the line.
func (d *lineDecoder) str() ([]byte, bool) {
	if !d.eat('"') {
		return nil, false
	}
	b, start := d.b, d.i
	for i := start; i < len(b); {
		// Plain bytes, the common case, cost one table load each.
		for i < len(b) && plainStrByte[b[i]] {
			i++
		}
		if i == len(b) {
			break
		}
		switch c := b[i]; {
		case c == '"':
			d.i = i + 1
			return b[start:i], true
		case c < utf8.RuneSelf: // a backslash or a control byte
			return nil, false
		default:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				return nil, false
			}
			i += size
		}
	}
	return nil, false
}

// plainStrByte marks the ASCII bytes a JSON string carries unescaped
// and unchanged: everything but controls, '"' and '\\'.
var plainStrByte = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// copied decodes a per-site string into its own allocation.
func (d *lineDecoder) copied() (string, bool) {
	s, ok := d.str()
	return string(s), ok
}

// vocab decodes a vocabulary string through the intern table.
func (d *lineDecoder) vocab() (string, bool) {
	s, ok := d.str()
	if !ok {
		return "", false
	}
	return d.interned(s), true
}

func (d *lineDecoder) interned(b []byte) string {
	if s, ok := d.intern[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(d.intern) < maxInterned && len(s) <= maxInternLen {
		d.intern[s] = s
	}
	return s
}

// vocabs decodes an array of vocabulary strings at its final length.
func (d *lineDecoder) vocabs() ([]string, bool) {
	d.strs = d.strs[:0]
	ok := d.array(func() bool {
		s, ok := d.vocab()
		d.strs = append(d.strs, s)
		return ok
	})
	if !ok {
		return nil, false
	}
	out := make([]string, len(d.strs))
	copy(out, d.strs)
	return out, true
}

// number scans one number per the strict JSON grammar. Looser forms
// (leading zeros, a bare dot, a plus sign) decline, and the fallback
// rejects them as json does. frac reports a fraction or an exponent.
func (d *lineDecoder) number() (tok []byte, frac, ok bool) {
	start := d.i
	d.eat('-')
	switch {
	case d.eat('0'):
	case d.digit():
		d.digits()
	default:
		return nil, false, false
	}
	if d.eat('.') {
		if !d.digit() {
			return nil, false, false
		}
		d.digits()
		frac = true
	}
	if d.eat('e') || d.eat('E') {
		if !d.eat('+') {
			d.eat('-')
		}
		if !d.digit() {
			return nil, false, false
		}
		d.digits()
		frac = true
	}
	return d.b[start:d.i], frac, true
}

func (d *lineDecoder) digit() bool {
	return d.i < len(d.b) && d.b[d.i] >= '0' && d.b[d.i] <= '9'
}

func (d *lineDecoder) digits() {
	for d.digit() {
		d.i++
	}
}

// int decodes an int field. json parses ints with strconv.ParseInt, so
// a fraction or an exponent (1.0, 1e2) is a decode error there, and
// so is overflow: both decline.
func (d *lineDecoder) int() (int, bool) {
	tok, frac, ok := d.number()
	if !ok || frac {
		return 0, false
	}
	neg := tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	if len(tok) > 19 { // 19 digits always fit a uint64
		return 0, false
	}
	var u uint64
	for _, c := range tok {
		u = u*10 + uint64(c-'0')
	}
	var v int64
	switch {
	case neg && u <= 1<<63:
		v = int64(-u)
	case !neg && u <= math.MaxInt64:
		v = int64(u)
	default:
		return 0, false
	}
	if int64(int(v)) != v {
		return 0, false
	}
	return int(v), true
}

// float decodes a float64 field exactly as json does (ParseFloat on the
// token); out-of-range values are an error there and decline here.
func (d *lineDecoder) float() (float64, bool) {
	tok, _, ok := d.number()
	if !ok {
		return 0, false
	}
	if f, ok := shortDecimal(tok); ok {
		return f, true
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	return f, err == nil
}

// shortDecimal parses a number token without an exponent and with at
// most 15 digits, the form the writer gives prices and latencies, as
// ParseFloat would: its digits m < 10¹⁵ < 2⁵³ and the power of ten 10ᵏ
// it is divided by are exact float64s, so m/10ᵏ is one correctly
// rounded division, which is ParseFloat's correctly rounded result.
func shortDecimal(tok []byte) (float64, bool) {
	neg := tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	var m uint64
	digits, scale := 0, -1
	for i, c := range tok {
		switch {
		case c >= '0' && c <= '9':
			m = m*10 + uint64(c-'0')
			digits++
		case c == '.':
			scale = len(tok) - i - 1
		default:
			return 0, false // an exponent
		}
	}
	if digits > 15 {
		return 0, false
	}
	f := float64(m)
	if scale > 0 {
		f /= pow10[scale]
	}
	if neg {
		f = -f
	}
	return f, true
}

var pow10 = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}
