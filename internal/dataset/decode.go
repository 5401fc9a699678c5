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
	ok := d.record(rec) && d.end()
	d.b = nil
	return ok
}

func (d *lineDecoder) record(rec *SiteRecord) bool {
	return d.object(func(key []byte) (bit uint32, ok bool) {
		switch string(key) {
		case "domain":
			rec.Domain, ok = d.copied()
			return 1 << 0, ok
		case "rank":
			rec.Rank, ok = d.int()
			return 1 << 1, ok
		case "visit_day":
			rec.VisitDay, ok = d.int()
			return 1 << 2, ok
		case "hb":
			rec.HB, ok = d.bool()
			return 1 << 3, ok
		case "facet":
			rec.Facet, ok = d.vocab()
			return 1 << 4, ok
		case "libraries":
			rec.Libraries, ok = d.vocabs()
			return 1 << 5, ok
		case "partners":
			rec.Partners, ok = d.vocabs()
			return 1 << 6, ok
		case "winners":
			rec.Winners, ok = d.vocabs()
			return 1 << 7, ok
		case "auctions":
			rec.Auctions, ok = d.auctionList()
			return 1 << 8, ok
		case "hb_latency_ms":
			rec.TotalHBLatencyMS, ok = d.float()
			return 1 << 9, ok
		case "ad_slots":
			rec.AdSlotsAuctioned, ok = d.int()
			return 1 << 10, ok
		case "partner_latency_ms":
			rec.PartnerLatencyMS, ok = d.latencyMap()
			return 1 << 11, ok
		case "traffic":
			return 1 << 12, d.traffic(&rec.Traffic)
		case "partner_errors":
			rec.PartnerErrors, ok = d.errorMap()
			return 1 << 13, ok
		case "retries":
			rec.Retries, ok = d.int()
			return 1 << 14, ok
		case "abandoned":
			rec.Abandoned, ok = d.int()
			return 1 << 15, ok
		case "quarantined":
			rec.Quarantined, ok = d.bool()
			return 1 << 16, ok
		case "panic_site":
			rec.PanicSite, ok = d.copied()
			return 1 << 17, ok
		case "loaded":
			rec.Loaded, ok = d.bool()
			return 1 << 18, ok
		case "timed_out":
			rec.TimedOut, ok = d.bool()
			return 1 << 19, ok
		case "err":
			rec.Err, ok = d.copied()
			return 1 << 20, ok
		}
		return 0, false
	})
}

func (d *lineDecoder) traffic(t *TrafficRecord) bool {
	return d.object(func(key []byte) (bit uint32, ok bool) {
		switch string(key) {
		case "bid_requests":
			t.BidRequests, ok = d.int()
			return 1 << 0, ok
		case "hosted_calls":
			t.HostedCalls, ok = d.int()
			return 1 << 1, ok
		case "ad_server":
			t.AdServer, ok = d.int()
			return 1 << 2, ok
		case "creatives":
			t.Creatives, ok = d.int()
			return 1 << 3, ok
		case "beacons":
			t.Beacons, ok = d.int()
			return 1 << 4, ok
		case "scripts":
			t.Scripts, ok = d.int()
			return 1 << 5, ok
		case "other":
			t.Other, ok = d.int()
			return 1 << 6, ok
		}
		return 0, false
	})
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
		return d.auction(len(d.auctions) - 1)
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

func (d *lineDecoder) auction(k int) bool {
	a := &d.auctions[k]
	return d.object(func(key []byte) (bit uint32, ok bool) {
		switch string(key) {
		case "id":
			a.ID, ok = d.copied()
			return 1 << 0, ok
		case "ad_unit":
			a.AdUnit, ok = d.vocab()
			return 1 << 1, ok
		case "size":
			a.Size, ok = d.vocab()
			return 1 << 2, ok
		case "duration_ms":
			a.DurationMS, ok = d.float()
			return 1 << 3, ok
		case "bids":
			lo := len(d.bids)
			ok = d.array(func() bool {
				d.bids = append(d.bids, BidRecord{})
				return d.bid(&d.bids[len(d.bids)-1])
			})
			d.bidSpans[k] = span{lo, len(d.bids)}
			return 1 << 4, ok
		case "winner":
			a.Winner, ok = d.vocab()
			return 1 << 5, ok
		case "winner_cpm":
			a.WinnerCPM, ok = d.float()
			return 1 << 6, ok
		case "rendered":
			a.Rendered, ok = d.bool()
			return 1 << 7, ok
		case "failed":
			a.Failed, ok = d.bool()
			return 1 << 8, ok
		}
		return 0, false
	})
}

func (d *lineDecoder) bid(b *BidRecord) bool {
	return d.object(func(key []byte) (bit uint32, ok bool) {
		switch string(key) {
		case "bidder":
			b.Bidder, ok = d.vocab()
			return 1 << 0, ok
		case "cpm":
			b.CPM, ok = d.float()
			return 1 << 1, ok
		case "size":
			b.Size, ok = d.vocab()
			return 1 << 2, ok
		case "late":
			b.Late, ok = d.bool()
			return 1 << 3, ok
		case "latency_ms":
			b.LatencyMS, ok = d.float()
			return 1 << 4, ok
		case "source":
			b.Source, ok = d.vocab()
			return 1 << 5, ok
		}
		return 0, false
	})
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
		c := b[i]
		switch {
		case c == '"':
			d.i = i + 1
			return b[start:i], true
		case c == '\\' || c < 0x20:
			return nil, false
		case c < utf8.RuneSelf:
			i++
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
	f, err := strconv.ParseFloat(string(tok), 64)
	return f, err == nil
}
