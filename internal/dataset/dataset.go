// Package dataset defines the crawl's on-disk records — one JSON line per
// site visit, mirroring what the paper's extension stored "for further
// analysis" — plus loading, summarizing (Table 1) and streaming helpers.
package dataset

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"headerbid/internal/core"
	"headerbid/internal/hb"
	"headerbid/internal/rtb/jsonkit"
)

// BidRecord is one observed bid, flattened for serialization.
type BidRecord struct {
	Bidder    string  `json:"bidder"`
	CPM       float64 `json:"cpm"`
	Size      string  `json:"size,omitempty"`
	Late      bool    `json:"late,omitempty"`
	LatencyMS float64 `json:"latency_ms,omitempty"`
	Source    string  `json:"source,omitempty"`
}

// AuctionRecord is one reconstructed auction.
type AuctionRecord struct {
	ID         string      `json:"id"`
	AdUnit     string      `json:"ad_unit"`
	Size       string      `json:"size,omitempty"`
	DurationMS float64     `json:"duration_ms,omitempty"`
	Bids       []BidRecord `json:"bids,omitempty"`
	Winner     string      `json:"winner,omitempty"`
	WinnerCPM  float64     `json:"winner_cpm,omitempty"`
	Rendered   bool        `json:"rendered,omitempty"`
	Failed     bool        `json:"failed,omitempty"`
}

// SiteRecord is one site visit: the unit of the crawl dataset.
type SiteRecord struct {
	Domain   string `json:"domain"`
	Rank     int    `json:"rank"`
	VisitDay int    `json:"visit_day"` // 0-based crawl day

	HB        bool     `json:"hb"`
	Facet     string   `json:"facet,omitempty"`
	Libraries []string `json:"libraries,omitempty"`

	Partners []string `json:"partners,omitempty"`
	Winners  []string `json:"winners,omitempty"`

	Auctions []AuctionRecord `json:"auctions,omitempty"`

	TotalHBLatencyMS float64 `json:"hb_latency_ms,omitempty"`
	AdSlotsAuctioned int     `json:"ad_slots,omitempty"`

	PartnerLatencyMS map[string][]float64 `json:"partner_latency_ms,omitempty"`

	// Traffic breaks the visit's requests down by role (§7.3 overhead).
	Traffic TrafficRecord `json:"traffic,omitempty"`

	// Degradation labels (all zero on a fault-free visit, so the JSONL
	// bytes of an unfaulted crawl are unchanged by their existence).
	// PartnerErrors counts transport-level bid failures by partner slug;
	// Retries counts wrapper retransmissions seen on the wire; Abandoned
	// counts bid requests never answered within the page's life.
	PartnerErrors map[string]int `json:"partner_errors,omitempty"`
	Retries       int            `json:"retries,omitempty"`
	Abandoned     int            `json:"abandoned,omitempty"`

	// Quarantined marks a visit that panicked and was converted into
	// this degraded record by the crawler's quarantine boundary;
	// PanicSite labels the panicking function.
	Quarantined bool   `json:"quarantined,omitempty"`
	PanicSite   string `json:"panic_site,omitempty"`

	Loaded   bool   `json:"loaded"`
	TimedOut bool   `json:"timed_out,omitempty"`
	Err      string `json:"err,omitempty"`
}

// TrafficRecord is the serialized per-visit request breakdown.
type TrafficRecord struct {
	BidRequests int `json:"bid_requests,omitempty"`
	HostedCalls int `json:"hosted_calls,omitempty"`
	AdServer    int `json:"ad_server,omitempty"`
	Creatives   int `json:"creatives,omitempty"`
	Beacons     int `json:"beacons,omitempty"`
	Scripts     int `json:"scripts,omitempty"`
	Other       int `json:"other,omitempty"`
}

// Total sums all categories.
func (t TrafficRecord) Total() int {
	return t.BidRequests + t.HostedCalls + t.AdServer + t.Creatives +
		t.Beacons + t.Scripts + t.Other
}

// HBRelated sums the HB-attributable categories.
func (t TrafficRecord) HBRelated() int {
	return t.BidRequests + t.HostedCalls + t.AdServer + t.Creatives + t.Beacons
}

// FacetValue parses the record's facet.
func (r *SiteRecord) FacetValue() hb.Facet { return hb.ParseFacet(r.Facet) }

// FromObservation converts a detector observation into a record: the
// one copy out of the detector's storage, which the next visit reuses.
// The record struct and its maps are its own allocations; its lists
// are taken from the store's chunks at exact size (DESIGN.md §5.3):
// its libraries, partners and winners side by side, then its auctions,
// all of its bids, auction after auction, and all of its latencies,
// each list, auction or partner holding a full slice (as the fast
// decoder lays them out). Nothing the record holds aliases the
// detector's reused storage.
func (st *Store) FromObservation(o *core.Observation, rank, day int, loaded, timedOut bool, errStr string) *SiteRecord {
	rec := &SiteRecord{
		Domain:           o.Domain,
		Rank:             rank,
		VisitDay:         day,
		HB:               o.HB,
		TotalHBLatencyMS: ms(o.TotalHBLatency),
		AdSlotsAuctioned: o.AdSlotsAuctioned,
		Traffic: TrafficRecord{
			BidRequests: o.Traffic.BidRequests,
			HostedCalls: o.Traffic.HostedCalls,
			AdServer:    o.Traffic.AdServer,
			Creatives:   o.Traffic.Creatives,
			Beacons:     o.Traffic.Beacons,
			Scripts:     o.Traffic.Scripts,
			Other:       o.Traffic.Other,
		},
		Retries:   o.BidRetries,
		Abandoned: o.BidsAbandoned,
		Loaded:    loaded,
		TimedOut:  timedOut,
		Err:       errStr,
	}
	if o.HB {
		rec.Facet = o.Facet.Short()
	}
	if n := len(o.Libraries) + len(o.PartnersSeen) + len(o.WinnersSeen); n > 0 {
		names := st.names.take(n)
		rec.Libraries, names = copyFull(names, o.Libraries)
		rec.Partners, names = copyFull(names, o.PartnersSeen)
		rec.Winners, _ = copyFull(names, o.WinnersSeen)
	}
	if len(o.PartnerLatency) > 0 {
		rec.PartnerLatencyMS = st.latencyMS(o.PartnerLatency)
	}
	if len(o.PartnerErrors) > 0 {
		rec.PartnerErrors = make(map[string]int, len(o.PartnerErrors))
		for slug, n := range o.PartnerErrors {
			rec.PartnerErrors[slug] = n
		}
	}
	if len(o.Auctions) == 0 {
		return rec
	}
	nBids := 0
	for i := range o.Auctions {
		nBids += len(o.Auctions[i].Bids)
	}
	var bids []BidRecord
	if nBids > 0 {
		bids = st.bids.take(nBids)
	}
	rec.Auctions = st.auctions.take(len(o.Auctions))
	for i := range o.Auctions {
		a, ar := &o.Auctions[i], &rec.Auctions[i]
		*ar = AuctionRecord{
			ID:       a.ID,
			AdUnit:   a.AdUnit,
			Rendered: a.Rendered,
			Failed:   a.Failed,
		}
		if !a.Size.IsZero() {
			ar.Size = a.Size.String()
		}
		if !a.Start.IsZero() && !a.End.IsZero() {
			ar.DurationMS = ms(a.End.Sub(a.Start))
		}
		if len(a.Bids) > 0 {
			ar.Bids, bids = bids[:len(a.Bids):len(a.Bids)], bids[len(a.Bids):]
		}
		for k, b := range a.Bids {
			ar.Bids[k] = BidRecord{
				Bidder:    b.Bidder,
				CPM:       b.CPM,
				Late:      b.Late,
				LatencyMS: ms(b.Latency),
				Source:    b.Source,
			}
			if !b.Size.IsZero() {
				ar.Bids[k].Size = b.Size.String()
			}
		}
		if a.Winner != nil {
			ar.Winner = a.Winner.Bidder
			ar.WinnerCPM = a.Winner.CPM
		}
	}
	return rec
}

// copyFull copies src into the front of dst, which has room for it, and
// returns the copy as a full slice (nil for an empty src) and the rest
// of dst.
func copyFull(dst, src []string) (head, rest []string) {
	n := copy(dst, src)
	if n == 0 {
		return nil, dst
	}
	return dst[:n:n], dst[n:]
}

// latencyMS converts the per-partner latency series to milliseconds: an
// exactly sized map whose series are full slices of one take from the
// store. A partner with an empty series gets no entry.
func (st *Store) latencyMS(lats map[string][]time.Duration) map[string][]float64 {
	n, keys := 0, 0
	for _, ls := range lats {
		n += len(ls)
		if len(ls) > 0 {
			keys++
		}
	}
	vals := st.floats.take(n)
	out := make(map[string][]float64, keys)
	// Where a series sits in vals follows map order, but each is a full
	// slice (cap == len): nothing observable depends on it.
	for slug, ls := range lats {
		if len(ls) == 0 {
			continue
		}
		for k, l := range ls {
			vals[k] = ms(l)
		}
		out[slug], vals = vals[:len(ls):len(ls)], vals[len(ls):]
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Writer appends records to a JSONL stream, one line per record: the
// bytes json.Encoder writes, encoded without reflection from the field
// tables (schema.go).
type Writer struct {
	w   *bufio.Writer
	c   io.Closer
	buf []byte // the line being written, reused record after record
	n   int
}

// NewWriter wraps an io.Writer; Close flushes (and closes when the
// underlying writer is a Closer passed via NewFileWriter).
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<20)}
}

// NewFileWriter creates/truncates a JSONL dataset file.
func NewFileWriter(path string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	w := NewWriter(f)
	w.c = f
	return w, nil
}

// Write appends one record. A record JSON cannot represent (a NaN or
// infinite float) returns encoding/json's error and writes nothing.
func (w *Writer) Write(rec *SiteRecord) error {
	b, ok := jsonkit.AppendObject(w.buf[:0], siteFields, rec)
	if !ok {
		// A float JSON cannot represent: encoding/json refuses the
		// record too, and its error is the one to return.
		blob, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		b = append(w.buf[:0], blob...)
	}
	w.buf = append(b, '\n')
	if _, err := w.w.Write(w.buf); err != nil {
		return err
	}
	w.n++
	return nil
}

// Count reports the records written.
func (w *Writer) Count() int { return w.n }

// Close flushes and closes the underlying file (if any).
func (w *Writer) Close() error {
	if err := w.w.Flush(); err != nil {
		return err
	}
	if w.c != nil {
		return w.c.Close()
	}
	return nil
}

// ReadStream decodes a JSONL stream record by record, handing each to fn
// without materializing the dataset. A non-nil error from fn aborts the
// read and is returned verbatim. Each record is fresh: fn may keep it,
// and with it the chunks of the stream's Store that its lists and
// copied strings sit in.
//
// Lines are decoded by a reflection-free fast path (decode.go) that
// declines anything it is not certain of; a declined line is decoded
// by encoding/json, which gives the same record and every error. A
// line may be up to maxLine bytes long.
func ReadStream(r io.Reader, fn func(*SiteRecord) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), maxLine)
	d := newLineDecoder()
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		rec := new(SiteRecord)
		if !d.decode(b, rec) {
			*rec = SiteRecord{}
			if err := json.Unmarshal(b, rec); err != nil {
				return fmt.Errorf("dataset: line %d: %w", line, err)
			}
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	return nil
}

// maxLine is the longest line ReadStream reads; its scanner's buffer
// starts at 64 KB and grows only for a longer line.
const maxLine = 16 << 20

// Summary is the dataset roll-up the paper reports as Table 1.
type Summary struct {
	SitesCrawled   int
	SitesWithHB    int
	Auctions       int
	Bids           int
	DemandPartners int
	CrawlDays      int
}

// AdoptionRate returns the fraction of distinct sites with HB.
func (s Summary) AdoptionRate() float64 {
	if s.SitesCrawled == 0 {
		return 0
	}
	return float64(s.SitesWithHB) / float64(s.SitesCrawled)
}
