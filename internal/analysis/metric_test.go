package analysis

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"headerbid/internal/dataset"
	"headerbid/internal/partners"
)

// synthRecords builds a crawl-shaped randomized dataset: day 0 visits
// every site in rank order, day 1 revisits (most of) the HB sites — the
// same (day, rank) stream order a real crawl emits — with enough variety
// to exercise every metric's filters (empty partner lists, zero slots,
// missing latencies, zero CPMs, unparseable sizes, s2s and late bids,
// unknown facets, multi-day dedupe). Some sites found without HB on day
// 0 have an HB record on day 1, as when two crawls of one world (first
// days 0 and 1) are folded into one report: their first record and
// their first HB record are different records.
func synthRecords(t *testing.T, seed int64) []*dataset.SiteRecord {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var slugs []string
	for _, p := range partners.Default().All() {
		slugs = append(slugs, p.Slug)
	}
	sizes := []string{"300x250", "728x90", "120x600", "970x250", ""}
	facets := []string{"server", "hybrid", "client", "server", "hybrid", ""}

	makeRec := func(domain string, rank, day int, hb bool) *dataset.SiteRecord {
		rec := &dataset.SiteRecord{Domain: domain, Rank: rank, VisitDay: day, HB: hb, Loaded: true}
		if !hb {
			return rec
		}
		rec.Facet = facets[rng.Intn(len(facets))]
		seen := map[string]bool{}
		for j := rng.Intn(8); j > 0; j-- {
			s := slugs[rng.Intn(len(slugs))]
			if !seen[s] {
				seen[s] = true
				rec.Partners = append(rec.Partners, s)
			}
		}
		if rng.Float64() < 0.75 {
			rec.TotalHBLatencyMS = 100 + 3000*rng.Float64()
		}
		rec.AdSlotsAuctioned = rng.Intn(25)
		for a := rng.Intn(4); a > 0; a-- {
			au := dataset.AuctionRecord{
				ID: fmt.Sprintf("a%d", a), AdUnit: "u",
				Size: sizes[rng.Intn(len(sizes))],
			}
			for b := rng.Intn(7); b > 0; b-- {
				bid := dataset.BidRecord{
					Bidder:    slugs[rng.Intn(len(slugs))],
					CPM:       rng.Float64() * 1.2,
					Size:      sizes[rng.Intn(len(sizes))],
					LatencyMS: 50 + 500*rng.Float64(),
				}
				if rng.Float64() < 0.1 {
					bid.CPM = 0
				}
				if rng.Float64() < 0.25 {
					bid.Late = true
				}
				if rng.Float64() < 0.2 {
					bid.Source = "s2s"
				}
				au.Bids = append(au.Bids, bid)
			}
			rec.Auctions = append(rec.Auctions, au)
		}
		if len(rec.Partners) > 0 {
			rec.PartnerLatencyMS = map[string][]float64{}
			for _, s := range rec.Partners {
				var ls []float64
				for k := 1 + rng.Intn(3); k > 0; k-- {
					ls = append(ls, 50+800*rng.Float64())
				}
				rec.PartnerLatencyMS[s] = ls
			}
			rec.Winners = rec.Partners[:1]
		}
		rec.Traffic = dataset.TrafficRecord{
			BidRequests: rng.Intn(20), HostedCalls: rng.Intn(3),
			AdServer: 1 + rng.Intn(3), Creatives: rng.Intn(5),
			Beacons: rng.Intn(4), Scripts: rng.Intn(6), Other: rng.Intn(5),
		}
		if rng.Float64() < 0.3 {
			rec.PartnerErrors = map[string]int{}
			for j := 1 + rng.Intn(3); j > 0; j-- {
				rec.PartnerErrors[slugs[rng.Intn(len(slugs))]] += 1 + rng.Intn(3)
			}
			rec.Retries = rng.Intn(4)
			rec.Abandoned = rng.Intn(3)
		}
		if rng.Float64() < 0.03 {
			rec.Quarantined = true
		}
		return rec
	}

	var recs, hbDay0, plainDay0 []*dataset.SiteRecord
	for i := 0; i < 400; i++ {
		rec := makeRec(fmt.Sprintf("site%04d.example", i), 1+rng.Intn(20000), 0, rng.Float64() < 0.45)
		recs = append(recs, rec)
		if rec.HB {
			hbDay0 = append(hbDay0, rec)
		} else {
			plainDay0 = append(plainDay0, rec)
		}
	}
	for _, r0 := range hbDay0 {
		if rng.Float64() < 0.8 {
			// Day-1 revisits occasionally lose the HB detection, so the
			// min-day dedupe has non-trivial work to do.
			recs = append(recs, makeRec(r0.Domain, r0.Rank, 1, rng.Float64() < 0.9))
		}
	}
	for _, r0 := range plainDay0 {
		if rng.Float64() < 0.3 {
			recs = append(recs, makeRec(r0.Domain, r0.Rank, 1, true))
		}
	}
	return recs
}

// fold adds every record to m in order and returns m: the one-pass
// reference that sharded merges are compared against, and the way the
// fixture tests compute a metric's result.
func fold[M Metric](m M, recs []*dataset.SiteRecord) M {
	for _, r := range recs {
		m.Add(r)
	}
	return m
}

// metricCase names a metric constructor.
type metricCase struct {
	name   string
	metric func() Metric
}

func metricCases() []metricCase {
	reg := partners.Default()
	return []metricCase{
		{"summary", func() Metric { return NewSummary() }},
		{"adoption_by_rank_band", func() Metric { return NewAdoptionByRankBand() }},
		{"facet_breakdown", func() Metric { return NewFacetBreakdown() }},
		{"top_partners", func() Metric { return NewTopPartners(7) }},
		{"unique_partners", func() Metric { return NewUniquePartners() }},
		{"partners_per_site", func() Metric { return NewPartnersPerSite() }},
		{"partner_combos", func() Metric { return NewPartnerCombos(10) }},
		{"partners_per_facet", func() Metric { return NewPartnersPerFacet(6) }},
		{"latency_cdf", func() Metric { return NewLatencyAccumulator() }},
		{"latency_vs_rank", func() Metric { return NewLatencyVsRank(500) }},
		{"partner_latencies", func() Metric { return NewPartnerLatencies() }},
		{"latency_vs_partner_count", func() Metric { return NewLatencyVsPartnerCount(8) }},
		{"latency_vs_popularity", func() Metric { return NewLatencyVsPopularity(reg, 10) }},
		{"late_bids", func() Metric { return NewLateBids() }},
		{"late_bids_per_partner", func() Metric { return NewLateBidsPerPartner(10, 2) }},
		{"slots_per_site", func() Metric { return NewSlotsPerSite() }},
		{"latency_vs_slots", func() Metric { return NewLatencyVsSlots(8) }},
		{"slot_sizes", func() Metric { return NewSlotSizes(6) }},
		{"price_cdf", func() Metric { return NewPriceCDF() }},
		{"price_per_size", func() Metric { return NewPricePerSize(3) }},
		{"price_vs_popularity", func() Metric { return NewPriceVsPopularity(reg, 10) }},
		{"traffic", func() Metric { return NewTraffic(1.5) }},
		{"degradation", func() Metric { return NewDegradation() }},
	}
}

// TestMetricStreamingMatchesBatch: Add is order-insensitive up to the
// result — the stream folded record by record in crawl order must match
// the same batch of records folded in shuffled orders, for every metric.
func TestMetricStreamingMatchesBatch(t *testing.T) {
	recs := synthRecords(t, 1)
	for _, tc := range metricCases() {
		t.Run(tc.name, func(t *testing.T) {
			want := fold(tc.metric(), recs).Snapshot()
			rng := rand.New(rand.NewSource(1))
			shuffled := append([]*dataset.SiteRecord(nil), recs...)
			for trial := 0; trial < 3; trial++ {
				rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
				if got := fold(tc.metric(), shuffled).Snapshot(); !reflect.DeepEqual(got, want) {
					t.Fatalf("shuffle %d: result depends on Add order:\ngot  %#v\nwant %#v", trial, got, want)
				}
			}
		})
	}
}

// TestMetricMergeLaws: splitting the stream across shards (as the crawl
// worker pool does) and merging them — in arbitrary permutations and
// arbitrary groupings — must be result-identical to a single in-order
// fold, for every metric. Each metric must also report its case name.
func TestMetricMergeLaws(t *testing.T) {
	for _, tc := range metricCases() {
		t.Run(tc.name, func(t *testing.T) {
			if m := tc.metric(); m.Name() != tc.name {
				t.Errorf("Name() = %q, want %q", m.Name(), tc.name)
			}
			for _, seed := range []int64{1, 2} {
				recs := synthRecords(t, seed)
				want := fold(tc.metric(), recs).Snapshot()

				for _, nshards := range []int{2, 3, 7} {
					rng := rand.New(rand.NewSource(seed*100 + int64(nshards)))

					// Random shard assignment, preserving stream order
					// within a shard (what a worker pool produces).
					proto := tc.metric()
					shards := make([]Metric, nshards)
					for i := range shards {
						shards[i] = proto.NewShard()
					}
					for _, r := range recs {
						shards[rng.Intn(nshards)].Add(r)
					}

					// Commutativity: merge the shards into an empty root
					// in a random order.
					root := tc.metric()
					for _, i := range rng.Perm(nshards) {
						root.Merge(shards[i])
					}
					if got := root.Snapshot(); !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d, %d shards: permuted merge diverged from one fold", seed, nshards)
					}

					// Associativity: rebuild the shards, pair them up
					// tree-wise, then merge the root last.
					shards = shards[:0]
					for i := 0; i < nshards; i++ {
						shards = append(shards, proto.NewShard())
					}
					rng2 := rand.New(rand.NewSource(seed*100 + int64(nshards)))
					for _, r := range recs {
						shards[rng2.Intn(nshards)].Add(r)
					}
					for len(shards) > 1 {
						var next []Metric
						for i := 0; i < len(shards); i += 2 {
							if i+1 < len(shards) {
								shards[i].Merge(shards[i+1])
							}
							next = append(next, shards[i])
						}
						shards = next
					}
					root = tc.metric()
					root.Merge(shards[0])
					if got := root.Snapshot(); !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d, %d shards: tree merge diverged from one fold", seed, nshards)
					}
				}
			}
		})
	}
}

// TestMetricMergeRejectsForeignKind: merging a different metric kind is
// a programming error and must panic.
func TestMetricMergeRejectsForeignKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("merging a foreign metric kind did not panic")
		}
	}()
	NewLateBids().Merge(NewPriceCDF())
}

// TestEveryStateFieldListed: Merge and the codec see only the fields a
// metric's constructor lists, so every field of every metric must be
// reached by exactly one entry of its list, by pointer identity. The
// only exemptions are constructor dependencies that are not state.
func TestEveryStateFieldListed(t *testing.T) {
	deps := map[string]bool{"reg": true, "w": true, "seed": true}
	ms := []Metric{NewWaterfallComparison(nil, 1)}
	for _, tc := range metricCases() {
		ms = append(ms, tc.metric())
	}
	for _, m := range ms {
		acc := m.(stateful).list().acc
		entries := make(map[uintptr]reflect.Type, len(acc))
		for _, a := range acc {
			entries[reflect.ValueOf(a).Pointer()] = reflect.TypeOf(a)
		}
		reached := 0
		var walk func(name string, f reflect.Value)
		walk = func(name string, f reflect.Value) {
			addr, ptr := f.UnsafeAddr(), reflect.PointerTo(f.Type())
			if f.Kind() == reflect.Pointer { // an accumulator over the pointee
				addr, ptr = f.Pointer(), f.Type()
			}
			if e, ok := entries[addr]; ok && ptr.ConvertibleTo(e) {
				reached++
				return
			}
			if f.Kind() == reflect.Array {
				for i := range f.Len() {
					walk(fmt.Sprintf("%s[%d]", name, i), f.Index(i))
				}
				return
			}
			t.Errorf("%s: field %s is in no entry of the state list", m.Name(), name)
		}
		v := reflect.ValueOf(m).Elem()
		for i := range v.NumField() {
			if f := v.Type().Field(i); f.Type != reflect.TypeOf(state{}) && !deps[f.Name] {
				walk(f.Name, v.Field(i))
			}
		}
		if reached != len(acc) {
			t.Errorf("%s: %d list entries reach %d fields", m.Name(), len(acc), reached)
		}
	}
}

// TestPartnerCombosKeepsLiteralSlugs: combo membership must come from
// the retained slug slices, never from re-splitting the joined key — a
// slug containing the join separator must survive intact.
func TestPartnerCombosKeepsLiteralSlugs(t *testing.T) {
	m := NewPartnerCombos(0)
	m.Add(&dataset.SiteRecord{Domain: "x.example", HB: true, Partners: []string{"c", "a+b"}})
	res := m.Result()
	if len(res) != 1 {
		t.Fatalf("got %d combos, want 1", len(res))
	}
	if got := res[0].Combo; len(got) != 2 || got[0] != "a+b" || got[1] != "c" {
		t.Fatalf("combo members = %v, want [a+b c]", got)
	}
}

// TestExtremesMatchesBatchOverShards pins the Figure-14 method on the
// merged partner-latency metric to Extremes over one in-order fold.
func TestExtremesMatchesBatchOverShards(t *testing.T) {
	recs := synthRecords(t, 3)
	reg := partners.Default()
	a, b := NewPartnerLatencies(), NewPartnerLatencies()
	for i, r := range recs {
		if i%2 == 0 {
			a.Add(r)
		} else {
			b.Add(r)
		}
	}
	a.Merge(b)
	if got, want := a.Extremes(reg, 10, 5), fold(NewPartnerLatencies(), recs).Extremes(reg, 10, 5); !reflect.DeepEqual(got, want) {
		t.Errorf("sharded Extremes diverged from one fold")
	}
}
