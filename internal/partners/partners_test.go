package partners

import (
	"sort"
	"testing"
	"testing/quick"
	"time"

	"headerbid/internal/rng"
	"headerbid/internal/urlkit"
)

func TestDefaultRegistryHas84Partners(t *testing.T) {
	r := Default()
	if r.Len() != 84 {
		t.Fatalf("registry has %d partners, want 84 (Table 1)", r.Len())
	}
}

// TestDefaultBuiltOnce: Default builds its registry once per process;
// every later call returns that registry and allocates nothing.
func TestDefaultBuiltOnce(t *testing.T) {
	r := Default()
	if Default() != r {
		t.Fatal("a second Default call returned another registry")
	}
	if n := testing.AllocsPerRun(100, func() { r = Default() }); n != 0 {
		t.Fatalf("Default allocates %.0f times after its first call, want 0", n)
	}
}

func TestRegistryLookups(t *testing.T) {
	r := Default()
	p, ok := r.BySlug("appnexus")
	if !ok || p.Name != "AppNexus" {
		t.Fatalf("BySlug(appnexus) = %+v, %v", p, ok)
	}
	if _, ok := r.BySlug("APPNEXUS"); !ok {
		t.Fatal("slug lookup should be case-insensitive")
	}
	if _, ok := r.BySlug("nope"); ok {
		t.Fatal("unknown slug matched")
	}
	p2, ok := r.ByURL("https://bid.adnxs.com/hb/v1/bid?x=1")
	if !ok || p2.Slug != "appnexus" {
		t.Fatalf("ByURL = %+v, %v", p2, ok)
	}
	if _, ok := r.ByURL("https://unknown.example/x"); ok {
		t.Fatal("unknown URL matched")
	}
	if _, ok := r.ByURL("::bad::"); ok {
		t.Fatal("malformed URL matched")
	}
}

func TestAllSortedByWeight(t *testing.T) {
	r := Default()
	all := r.All()
	for i := 1; i < len(all); i++ {
		if all[i].Weight > all[i-1].Weight {
			t.Fatalf("All() not descending by weight at %d (%s %f > %s %f)",
				i, all[i].Slug, all[i].Weight, all[i-1].Slug, all[i-1].Weight)
		}
	}
	if all[0].Slug != "dfp" {
		t.Fatalf("most popular partner = %s, want dfp", all[0].Slug)
	}
}

func TestPopularityRank(t *testing.T) {
	r := Default()
	rank, ok := r.PopularityRank("dfp")
	if !ok || rank != 1 {
		t.Fatalf("dfp rank = %d, %v", rank, ok)
	}
	rank2, ok := r.PopularityRank("appnexus")
	if !ok || rank2 != 2 {
		t.Fatalf("appnexus rank = %d", rank2)
	}
	if _, ok := r.PopularityRank("missing"); ok {
		t.Fatal("missing slug ranked")
	}
}

func TestPaperNamedPartnersPresent(t *testing.T) {
	// Every partner named in the paper's figures must exist.
	r := Default()
	named := []string{
		// Figure 8
		"dfp", "appnexus", "rubicon", "criteo", "ix", "amazon", "openx",
		"pubmatic", "aol", "sovrn", "smartadserver",
		// Figure 10 extras
		"yieldlab",
		// Figure 11
		"districtm", "oftmedia", "brealtime", "emx_digital", "aduptech", "livewrapped",
		// Figure 14 fastest
		"piximedia", "onetag", "justpremium", "stickyadstv", "widespace",
		"polymorph", "gjirafa", "atomx", "yieldbot",
		// Figure 14 slowest
		"trion", "adocean", "fidelity", "c1x", "yieldone", "aardvark",
		"innity", "bridgewell", "gamma", "adgeneration",
		// Figure 18 late
		"lifestreet", "admatic", "consumable", "spotx", "freewheel", "lkqd",
		"tremor", "inskin", "adkerneladn", "quantum", "smartyads",
		"clickonometrics", "kumma", "eplanning", "improvedigital",
	}
	for _, slug := range named {
		if _, ok := r.BySlug(slug); !ok {
			t.Errorf("paper-named partner %q missing from registry", slug)
		}
	}
}

func TestLatencyCalibrationMatchesFigure14(t *testing.T) {
	r := Default()
	// Fastest partner medians in the paper span 41-217ms.
	fastest := []string{"piximedia", "onetag", "justpremium", "stickyadstv",
		"widespace", "polymorph", "yieldlab", "gjirafa", "atomx", "yieldbot"}
	for _, slug := range fastest {
		p, _ := r.BySlug(slug)
		if p.MedianMS < 41 || p.MedianMS > 217 {
			t.Errorf("%s median %0.f outside the paper's 41-217ms band", slug, p.MedianMS)
		}
	}
	// Slowest partner medians span 646-1290ms.
	slowest := []string{"trion", "adocean", "fidelity", "c1x", "yieldone",
		"aardvark", "innity", "bridgewell", "gamma", "adgeneration"}
	for _, slug := range slowest {
		p, _ := r.BySlug(slug)
		if p.MedianMS < 646 || p.MedianMS > 1290 {
			t.Errorf("%s median %.0f outside the paper's 646-1290ms band", slug, p.MedianMS)
		}
	}
	// Criteo is the fast outlier among the top partners (paper: <200ms).
	criteo, _ := r.BySlug("criteo")
	if criteo.MedianMS >= 200 {
		t.Errorf("criteo median %.0f, paper says under 200ms", criteo.MedianMS)
	}
}

func TestSampleLatencyMatchesProfile(t *testing.T) {
	r := Default()
	p, _ := r.BySlug("appnexus")
	stream := rng.New(1)
	var xs []float64
	for i := 0; i < 20000; i++ {
		xs = append(xs, float64(p.SampleLatency(stream))/float64(time.Millisecond))
	}
	sort.Float64s(xs)
	med := xs[len(xs)/2]
	if med < p.MedianMS*0.9 || med > p.MedianMS*1.1 {
		t.Fatalf("sampled median %.0f vs profile %.0f", med, p.MedianMS)
	}
	p90 := xs[int(0.9*float64(len(xs)))]
	if p90 < p.P90MS*0.85 || p90 > p.P90MS*1.15 {
		t.Fatalf("sampled p90 %.0f vs profile %.0f", p90, p.P90MS)
	}
}

func TestSampleCPMClamped(t *testing.T) {
	r := Default()
	stream := rng.New(2)
	for _, p := range r.All() {
		for i := 0; i < 200; i++ {
			v := p.SampleCPM(stream)
			if v < 0.0001 || v > 20 {
				t.Fatalf("%s CPM %v out of clamp range", p.Slug, v)
			}
		}
	}
}

func TestProfileSanityProperty(t *testing.T) {
	// Every profile must have coherent calibration values.
	for _, p := range Default().All() {
		if p.Slug == "" || p.Host == "" || p.Name == "" {
			t.Fatalf("incomplete profile: %+v", p)
		}
		if p.MedianMS <= 0 || p.P90MS < p.MedianMS {
			t.Errorf("%s: latency calibration incoherent (med=%v p90=%v)", p.Slug, p.MedianMS, p.P90MS)
		}
		if p.BidProb < 0 || p.BidProb > 1 || p.LateProb < 0 || p.LateProb > 1 {
			t.Errorf("%s: probabilities out of range", p.Slug)
		}
		if p.PriceMedianUSD <= 0 || p.PriceSigma <= 0 {
			t.Errorf("%s: price calibration incoherent", p.Slug)
		}
		if p.DSPCount < 1 {
			t.Errorf("%s: DSPCount = %d", p.Slug, p.DSPCount)
		}
		if !p.HasRole(RoleBidder) && !p.HasRole(RoleAdServer) && !p.HasRole(RoleServerSide) {
			t.Errorf("%s: no roles", p.Slug)
		}
	}
}

func TestEndpointsResolveBackToPartner(t *testing.T) {
	f := func(idx uint8) bool {
		r := Default()
		all := r.All()
		p := all[int(idx)%len(all)]
		got, ok := r.ByURL(p.BidEndpoint())
		if !ok || got.Slug != p.Slug {
			return false
		}
		got2, ok2 := r.ByURL(p.SyncEndpoint())
		return ok2 && got2.Slug == p.Slug
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 84}); err != nil {
		t.Fatal(err)
	}
}

// TestDomainsCoverAllPartners: every partner's registrable endpoint
// domain attributes to that partner (no two partners share a domain).
func TestDomainsCoverAllPartners(t *testing.T) {
	r := Default()
	for _, p := range r.All() {
		got, ok := r.ByDomain(urlkit.RegistrableDomain(p.Host))
		if !ok || got != p {
			t.Fatalf("domain of %s attributes to %v (host collision?)", p.Slug, got)
		}
	}
}

func TestDuplicateSlugPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate slug did not panic")
		}
	}()
	NewRegistry([]Profile{
		{Slug: "x", Host: "x1.example", Name: "X", MedianMS: 1, P90MS: 2},
		{Slug: "x", Host: "x2.example", Name: "X2", MedianMS: 1, P90MS: 2},
	})
}

func TestBiddersAndServerSideProviders(t *testing.T) {
	r := Default()
	bidders := r.Bidders()
	if len(bidders) == 0 {
		t.Fatal("no bidders")
	}
	ssp := r.ServerSideProviders()
	if len(ssp) < 5 {
		t.Fatalf("server-side providers = %d, want several", len(ssp))
	}
	foundDFP := false
	for _, p := range ssp {
		if p.Slug == "dfp" {
			foundDFP = true
		}
	}
	if !foundDFP {
		t.Fatal("DFP must be a server-side provider")
	}
}

func TestChronicallyLatePartnersCalibrated(t *testing.T) {
	// Figure 18: a set of partners is late in >50% of their bids, with at
	// least one near 100%.
	r := Default()
	over50 := 0
	near100 := false
	for _, p := range r.All() {
		if p.LateProb > 0.5 {
			over50++
		}
		if p.LateProb > 0.9 {
			near100 = true
		}
	}
	if over50 < 15 || over50 > 30 {
		t.Fatalf("%d partners with LateProb>0.5; paper names 21", over50)
	}
	if !near100 {
		t.Fatal("no partner near 100% late (paper: some partners lose all bids)")
	}
}
