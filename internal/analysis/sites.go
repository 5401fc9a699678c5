package analysis

import (
	"fmt"
	"maps"
	"slices"

	"headerbid/internal/dataset"
	"headerbid/internal/hb"
	"headerbid/internal/wire"
)

// SiteTable is the per-domain state of the first-visit analyses. The
// paper counts each site once, by its first visit, in Table 1, §3.2,
// §4.6 and Figures 8, 9, 10, 15 and 19, and all eight read it from a
// table of two maps: every domain's first record, and every HB domain's
// first HB record. A domain keeps the record with the smallest
// VisitDay, a property of the record rather than of stream position —
// the same record in a crawl, which emits by day then rank, and one
// that survives arbitrary sharding. Ties keep the record already held.
//
// Each public constructor of those metrics builds its own table; Share
// makes several metrics read one, so that a bundle of them (the figure
// report) adds, merges and encodes each domain once.
type SiteTable struct {
	first map[string]firstVisit // every domain: its first record
	hb    map[string]firstHB    // HB domains: their first HB record
}

// firstVisit is what §3.2 reads of a domain's first record. Every
// crawled domain has one, so the fields are sized to keep it at 12
// bytes: int32 holds any crawl's days and ranks.
type firstVisit struct {
	day, rank int32
	hb        bool
}

// firstHB is what §4.6 and Figures 8, 9, 10, 15 and 19 read of a
// domain's first HB record. It exists only for HB domains, so the
// partner-slice header is not paid for the non-HB majority.
type firstHB struct {
	day, slots int32
	facet      hb.Facet
	partners   []string
}

// NewSiteTable returns an empty site table.
func NewSiteTable() *SiteTable {
	return &SiteTable{first: make(map[string]firstVisit), hb: make(map[string]firstHB)}
}

// Add folds one record in. A non-HB record touches only the
// first-record map.
func (t *SiteTable) Add(r *dataset.SiteRecord) {
	day := int32(r.VisitDay)
	if cur, ok := t.first[r.Domain]; !ok || day < cur.day {
		t.first[r.Domain] = firstVisit{day: day, rank: int32(r.Rank), hb: r.HB}
	}
	if !r.HB {
		return
	}
	if cur, ok := t.hb[r.Domain]; !ok || day < cur.day {
		t.hb[r.Domain] = firstHB{day: day, slots: int32(r.AdSlotsAuctioned), facet: r.FacetValue(), partners: r.Partners}
	}
}

// Merge folds another table in, keeping the smaller day per domain. A
// crawl visits each (domain, day) at most once, so no two shards ever
// tie and the merge is commutative and associative.
//
// The argument is consumed: a table passed to Merge must not be added
// to or merged again afterwards. That lets an empty receiver — the
// first shard folded into a root — adopt the shard's maps outright.
func (t *SiteTable) Merge(o *SiteTable) {
	t.first = mergeFirst(t.first, o.first, func(v firstVisit) int32 { return v.day })
	t.hb = mergeFirst(t.hb, o.hb, func(v firstHB) int32 { return v.day })
}

func mergeFirst[V any](dst, src map[string]V, day func(V) int32) map[string]V {
	if len(dst) == 0 {
		return src
	}
	for dom, v := range src {
		if cur, ok := dst[dom]; !ok || day(v) < day(cur) {
			dst[dom] = v
		}
	}
	return dst
}

// EncodeState writes both maps in sorted domain order.
func (t *SiteTable) EncodeState(w *wire.Writer) {
	doms := slices.Sorted(maps.Keys(t.first))
	w.Uvarint(uint64(len(doms)))
	for _, d := range doms {
		v := t.first[d]
		w.String(d)
		w.Int(int(v.day))
		w.Int(int(v.rank))
		w.Bool(v.hb)
	}
	doms = slices.Sorted(maps.Keys(t.hb))
	w.Uvarint(uint64(len(doms)))
	for _, d := range doms {
		v := t.hb[d]
		w.String(d)
		w.Int(int(v.day))
		w.Int(int(v.slots))
		w.Int(int(v.facet))
		w.Strings(v.partners)
	}
}

// DecodeState replaces the table's contents with the serialized ones.
// The table itself stays the same object, so metrics sharing it read
// the decoded state.
func (t *SiteTable) DecodeState(r *wire.Reader) error {
	n := r.Len()
	t.first = make(map[string]firstVisit, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		d := r.String()
		t.first[d] = firstVisit{day: int32(r.Int()), rank: int32(r.Int()), hb: r.Bool()}
	}
	n = r.Len()
	t.hb = make(map[string]firstHB, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		d := r.String()
		t.hb[d] = firstHB{day: int32(r.Int()), slots: int32(r.Int()), facet: hb.Facet(r.Int()), partners: r.Strings()}
	}
	return r.Err()
}

// Share makes each metric read t instead of its own table. From then on
// the metric's Add, Merge and codec leave the per-domain state to t's
// owner, which folds t once for all of them. Every metric must be one
// of the eight first-visit metrics, freshly built.
func (t *SiteTable) Share(ms ...Metric) {
	for _, m := range ms {
		v, ok := m.(interface{ view() *siteView })
		if !ok {
			panic(fmt.Sprintf("analysis: %T keeps no site table", m))
		}
		*v.view() = siteView{sites: t, shared: true}
	}
}

// siteView is embedded by the eight first-visit metrics: the site table
// a metric reads, which it folds itself unless the table is shared. It
// is the accumulator those metrics list for their table, and the
// metrics that keep no other state use its Add as their own.
type siteView struct {
	sites  *SiteTable
	shared bool // the table's owner folds it (SiteTable.Share)
}

func ownSites() siteView { return siteView{sites: NewSiteTable()} }

func (v *siteView) view() *siteView { return v }

// Add folds one record in.
func (v *siteView) Add(r *dataset.SiteRecord) {
	if !v.shared {
		v.sites.Add(r)
	}
}

func (v *siteView) merge(o accumulator) {
	if !v.shared {
		v.sites.Merge(o.(*siteView).sites)
	}
}

func (v *siteView) encode(w *wire.Writer) {
	if !v.shared {
		v.sites.EncodeState(w)
	}
}

func (v *siteView) decode(r *wire.Reader) error {
	if !v.shared {
		return v.sites.DecodeState(r)
	}
	return r.Err()
}
