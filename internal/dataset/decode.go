package dataset

import (
	"strings"
	"unsafe"

	"headerbid/internal/rtb/jsonkit"
)

// The JSONL read path's fast decoder (DESIGN.md §5.4). ReadStream hands
// every line to lineDecoder.decode first, which walks the field tables
// of schema.go with the JSON kernel: without reflection, all or
// nothing. Whenever the kernel is not certain that json.Unmarshal into
// a fresh SiteRecord would give the same record (jsonkit's decline
// rules), it declines and ReadStream decodes that line with
// encoding/json instead. The fallback is the reference implementation:
// every error a caller sees comes from it, so error messages do not
// depend on this file.

const (
	// maxInterned caps the intern table of one ReadStream call, and
	// maxInternLen the strings it takes, so hostile input cannot grow
	// it: past either bound a vocabulary string is copied instead.
	maxInterned  = 1 << 12
	maxInternLen = 64
)

// lineDecoder is the per-stream state of the fast path and the owner
// (jsonkit.Owner) of what it decodes. Decoded strings never alias the
// line, which is the scanner's reused buffer: the per-site strings
// (domain, auction id, err, panic site) are copied into the store, and
// the closed vocabularies (partner slugs, libraries, facets, sizes,
// sources, ad units) are interned, one copy per stream.
type lineDecoder struct {
	intern map[string]string
	store  Store // the lists and copied strings of every record decoded

	// Scratch reused line after line. Decoded lists are copied out of
	// it into the store at their final length, so no slice a record
	// holds regrows or shares memory with another record.
	auctions []AuctionRecord
	bids     []BidRecord // the record's bids, auction after auction
	floats   []float64
	latency  []keySpan // partner_latency_ms members: values in floats
}

// keySpan is one partner_latency_ms member: its values are floats[lo:hi],
// or nil when lo < 0 (a null).
type keySpan struct {
	key    string
	lo, hi int
}

func newLineDecoder() *lineDecoder {
	return &lineDecoder{intern: make(map[string]string)}
}

// decode fills the fresh record rec from line and reports whether it
// could. On false rec holds partial state and must be discarded. The
// kernel reads the line in place, as a string, because every string the
// record keeps goes through Own.
func (d *lineDecoder) decode(line []byte, rec *SiteRecord) bool {
	return jsonkit.Decode(unsafe.String(unsafe.SliceData(line), len(line)), d, siteFields, rec)
}

// Own copies a per-site string into the store and interns a
// vocabulary one.
func (d *lineDecoder) Own(s string, interned bool) string {
	if interned {
		return d.interned(s)
	}
	return d.store.copyString(s)
}

// Strings takes the storage of a decoded []string from the store.
func (d *lineDecoder) Strings(n int) []string { return d.store.names.take(n) }

func (d *lineDecoder) interned(s string) string {
	if v, ok := d.intern[s]; ok {
		return v
	}
	s = strings.Clone(s)
	if len(d.intern) < maxInterned && len(s) <= maxInternLen {
		d.intern[s] = s
	}
	return s
}

// decodeAuctions decodes the auctions array through the stream's
// scratch and copies it out into the store. Every auction's bids land
// in one take sized to the record's bid count; each auction gets its
// own full slice of it (cap == len), so an append by a consumer copies
// instead of overwriting a neighbour.
func decodeAuctions(c jsonkit.Cursor, p *[]AuctionRecord) (jsonkit.Cursor, bool) {
	d := c.Owner().(*lineDecoder)
	d.bids = d.bids[:0]
	var ok bool
	if d.auctions, ok = jsonkit.DecodeList(&c, auctionFields, d.auctions[:0]); !ok {
		return c, false
	}
	out := d.store.auctions.take(len(d.auctions))
	copy(out, d.auctions)
	bids := d.store.bids.take(len(d.bids))
	copy(bids, d.bids)
	// d.bids holds each auction's bids in auction order (decodeBids).
	lo := 0
	for k := range out {
		if out[k].Bids != nil {
			hi := lo + len(out[k].Bids)
			out[k].Bids = bids[lo:hi:hi]
			lo = hi
		}
	}
	*p = out
	return c, true
}

// decodeBids decodes the bids of the auction being decoded onto the end
// of d.bids; the auction holds them there until decodeAuctions copies
// them out.
func decodeBids(c jsonkit.Cursor, p *[]BidRecord) (jsonkit.Cursor, bool) {
	d := c.Owner().(*lineDecoder)
	lo := len(d.bids)
	var ok bool
	d.bids, ok = jsonkit.DecodeList(&c, bidFields, d.bids)
	if *p = d.bids[lo:len(d.bids):len(d.bids)]; *p == nil {
		*p = []BidRecord{} // json decodes [] to an empty list, not nil
	}
	return c, ok
}

// decodeLatency decodes partner_latency_ms. All of the record's
// latencies share one take from the store, each key holding a full
// slice of it.
func decodeLatency(c jsonkit.Cursor, p *map[string][]float64) (jsonkit.Cursor, bool) {
	d := c.Owner().(*lineDecoder)
	d.latency, d.floats = d.latency[:0], d.floats[:0]
	more, ok := c.Begin('{')
	for more {
		key, kok := c.Key()
		if !kok {
			return c, false
		}
		ks := keySpan{key: d.interned(key), lo: -1}
		if !c.Null() {
			ks.lo = len(d.floats)
			vmore, vok := c.Begin('[')
			for vmore {
				f, fok := c.Float()
				if !fok {
					return c, false
				}
				d.floats = append(d.floats, f)
				vmore, vok = c.Next(']')
			}
			if !vok {
				return c, false
			}
			ks.hi = len(d.floats)
		}
		d.latency = append(d.latency, ks)
		more, ok = c.Next('}')
	}
	if !ok {
		return c, false
	}
	vals := d.store.floats.take(len(d.floats))
	copy(vals, d.floats)
	m := make(map[string][]float64, len(d.latency))
	for _, ks := range d.latency {
		if _, dup := m[ks.key]; dup {
			return c, false
		}
		var v []float64 // one assignment: updating a key of a full small map grows it
		if ks.lo >= 0 {
			v = vals[ks.lo:ks.hi:ks.hi]
		}
		m[ks.key] = v
	}
	*p = m
	return c, true
}

// decodeErrors decodes partner_errors.
func decodeErrors(c jsonkit.Cursor, p *map[string]int) (jsonkit.Cursor, bool) {
	d := c.Owner().(*lineDecoder)
	m := make(map[string]int)
	more, ok := c.Begin('{')
	for more {
		key, kok := c.Key()
		if !kok {
			return c, false
		}
		if _, dup := m[key]; dup {
			return c, false
		}
		n, nok := c.Int()
		if !nok {
			return c, false
		}
		m[d.interned(key)] = n
		more, ok = c.Next('}')
	}
	*p = m
	return c, ok
}
