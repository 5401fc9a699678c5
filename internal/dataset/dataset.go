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
// Every slice and map is sized exactly and owned by the record: all bids
// of the record share one backing array, and so do all of its
// latencies, each auction or partner holding a full slice of it (as the
// fast decoder lays them out), and so do its libraries, partners and
// winners. Nothing the record holds aliases the detector's reused
// storage (DESIGN.md §5.3).
func FromObservation(o *core.Observation, rank, day int, loaded, timedOut bool, errStr string) *SiteRecord {
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
		names := make([]string, 0, n)
		names, rec.Libraries = appendFull(names, o.Libraries)
		names, rec.Partners = appendFull(names, o.PartnersSeen)
		_, rec.Winners = appendFull(names, o.WinnersSeen)
	}
	if len(o.PartnerLatency) > 0 {
		rec.PartnerLatencyMS = latencyMS(o.PartnerLatency)
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
		bids = make([]BidRecord, 0, nBids)
	}
	rec.Auctions = make([]AuctionRecord, len(o.Auctions))
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
		lo := len(bids)
		for _, b := range a.Bids {
			br := BidRecord{
				Bidder:    b.Bidder,
				CPM:       b.CPM,
				Late:      b.Late,
				LatencyMS: ms(b.Latency),
				Source:    b.Source,
			}
			if !b.Size.IsZero() {
				br.Size = b.Size.String()
			}
			bids = append(bids, br)
		}
		if hi := len(bids); hi > lo {
			ar.Bids = bids[lo:hi:hi]
		}
		if a.Winner != nil {
			ar.Winner = a.Winner.Bidder
			ar.WinnerCPM = a.Winner.CPM
		}
	}
	return rec
}

// appendFull appends src to dst, which has room for it, and returns dst
// and the copy as a full slice of it (nil for an empty src).
func appendFull(dst, src []string) ([]string, []string) {
	if len(src) == 0 {
		return dst, nil
	}
	lo := len(dst)
	dst = append(dst, src...)
	return dst, dst[lo:len(dst):len(dst)]
}

// latencyMS converts the per-partner latency series to milliseconds: an
// exactly sized map whose series share one backing array. A partner
// with an empty series gets no entry.
func latencyMS(lats map[string][]time.Duration) map[string][]float64 {
	n, keys := 0, 0
	for _, ls := range lats {
		n += len(ls)
		if len(ls) > 0 {
			keys++
		}
	}
	vals := make([]float64, 0, n)
	out := make(map[string][]float64, keys)
	for slug, ls := range lats {
		if len(ls) == 0 {
			continue
		}
		lo := len(vals)
		for _, l := range ls {
			vals = append(vals, ms(l)) //hbvet:allow detwall where a series sits in vals follows map order, but each is a full slice (cap == len): nothing observable depends on it
		}
		out[slug] = vals[lo:len(vals):len(vals)]
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
// read and is returned verbatim. Each record is fresh: fn may keep it.
//
// Lines are decoded by a reflection-free fast path (decode.go) that
// declines anything it is not certain of; a declined line is decoded
// by encoding/json, which gives the same record and every error.
func ReadStream(r io.Reader, fn func(*SiteRecord) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
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
