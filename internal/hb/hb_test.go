package hb

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"headerbid/internal/urlkit"
)

// collect gathers ScanTargeting's pairs into a Targeting, nil when the
// query carries none.
func collect(q urlkit.Query) Targeting {
	var t Targeting
	ts := ScanTargeting(q)
	for k, v, ok := ts.Next(); ok; k, v, ok = ts.Next() {
		if t == nil {
			t = Targeting{}
		}
		t[k] = v
	}
	return t
}

// query returns m's pairs as a key-sorted urlkit.Query.
func query(m map[string]string) urlkit.Query {
	var q urlkit.Query
	for k, v := range m {
		q.Set(k, v)
	}
	return q
}

func TestFacetRoundTrip(t *testing.T) {
	for _, f := range Facets() {
		if got := ParseFacet(f.Short()); got != f {
			t.Errorf("ParseFacet(%q) = %v, want %v", f.Short(), got, f)
		}
	}
	if ParseFacet("nonsense") != FacetUnknown {
		t.Fatal("unknown facet string should parse to FacetUnknown")
	}
	if ParseFacet("Client-Side HB") != FacetClient {
		t.Fatal("long form not parsed")
	}
}

func TestFacetStrings(t *testing.T) {
	if FacetServer.String() != "Server-Side HB" || FacetServer.Short() != "server" {
		t.Fatal("server facet strings wrong")
	}
	if FacetUnknown.String() != "Unknown HB" {
		t.Fatal("unknown facet string wrong")
	}
}

func TestParseSize(t *testing.T) {
	good := map[string]Size{
		"300x250":   {300, 250},
		"728X90":    {728, 90},
		" 300x250 ": {300, 250},
	}
	for in, want := range good {
		got, err := ParseSize(in)
		if err != nil || got != want {
			t.Errorf("ParseSize(%q) = %v, %v", in, got, err)
		}
	}
	for _, bad := range []string{"", "300", "300x", "x250", "-10x20", "0x0", "axb", "300x250x1"} {
		if _, err := ParseSize(bad); err == nil {
			t.Errorf("ParseSize(%q) should fail", bad)
		}
	}
}

func TestSizeRoundTripProperty(t *testing.T) {
	f := func(w, h uint16) bool {
		if w == 0 || h == 0 {
			return true
		}
		s := Size{int(w), int(h)}
		got, err := ParseSize(s.String())
		return err == nil && got == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSizeArea(t *testing.T) {
	if SizeMediumRectangle.Area() != 75000 {
		t.Fatalf("300x250 area = %d", SizeMediumRectangle.Area())
	}
	var z Size
	if !z.IsZero() || SizeLeaderboard.IsZero() {
		t.Fatal("IsZero wrong")
	}
}

func TestPriceBucket(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0.00"}, {0.04, "0.00"}, {0.10, "0.10"}, {0.15, "0.10"},
		{1.234, "1.20"}, {19.99, "19.90"}, {25, "20.00"}, {-1, "0.00"},
	}
	for _, c := range cases {
		if got := PriceBucket(c.in); got != c.want {
			t.Errorf("PriceBucket(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestIsTargetingKey(t *testing.T) {
	yes := []string{"hb_bidder", "HB_PB", "hb_size", "hb_bidder_appnexus", "bidder", "hb_pb_rubicon"}
	for _, k := range yes {
		if !IsTargetingKey(k) {
			t.Errorf("IsTargetingKey(%q) = false", k)
		}
	}
	no := []string{"price", "hb", "hbx_bidder", "utm_source", "", "hb_unknownkey"}
	for _, k := range no {
		if IsTargetingKey(k) {
			t.Errorf("IsTargetingKey(%q) = true", k)
		}
	}
}

func TestTargetingFromBidAndBack(t *testing.T) {
	b := Bid{
		Bidder: "appnexus", CPM: 1.25, Currency: USD,
		Size: Size{300, 250}, CreativeID: "cr-1", DealID: "deal-9",
	}
	q := TargetingFromBid(b)
	if !slices.IsSortedFunc(q, func(a, b urlkit.Param) int { return strings.Compare(a.Key, b.Key) }) {
		t.Fatalf("TargetingFromBid = %v, not key-sorted", q)
	}
	tg := collect(q)
	if tg.Bidder() != "appnexus" {
		t.Fatalf("bidder = %q", tg.Bidder())
	}
	price, ok := tg.Price()
	if !ok || price != 1.20 { // bucketed
		t.Fatalf("price = %v, %v", price, ok)
	}
	if size, err := ParseSize(tg[KeySize]); err != nil || size != b.Size {
		t.Fatalf("size = %v, %v", size, err)
	}
	if tg[KeyDeal] != "deal-9" {
		t.Fatal("deal id dropped")
	}
}

func TestParseTargeting(t *testing.T) {
	params := map[string]string{
		"hb_bidder": "rubicon",
		"hb_pb":     "0.50",
		"slot":      "div-1",
		"noise":     "x",
	}
	tg := collect(query(params))
	if tg == nil || tg.Bidder() != "rubicon" {
		t.Fatalf("targeting = %v", tg)
	}
	if _, ok := tg["slot"]; ok {
		t.Fatal("non-HB param leaked into targeting")
	}
	if collect(query(map[string]string{"a": "b"})) != nil {
		t.Fatal("no HB params should yield nil")
	}
}

// TestParseTargetingCaseCollision: spellings of one key that differ
// only in case resolve by a fixed rule, not by the order they come in —
// the spelling already lower case wins, otherwise the byte-smallest.
func TestParseTargetingCaseCollision(t *testing.T) {
	cases := []struct {
		params map[string]string
		want   string
	}{
		{map[string]string{"hb_bidder": "a", "HB_BIDDER": "b"}, "a"},
		{map[string]string{"Hb_Bidder": "c", "HB_BIDDER": "b", "hB_bidder": "d"}, "b"},
		{map[string]string{"hb_bidder": "a", "HB_BIDDER": "b", "Hb_Bidder": "c", "hb_pb": "1.00"}, "a"},
	}
	for _, c := range cases {
		for i := 0; i < 200; i++ {
			if got := collect(query(c.params)).Bidder(); got != c.want {
				t.Fatalf("call %d: collect(%v).Bidder() = %q, want %q", i, c.params, got, c.want)
			}
		}
	}
}

func TestTargetingLegacyKeys(t *testing.T) {
	tg := collect(query(map[string]string{"hb_partner": "criteo", "hb_price": "0.42"}))
	if tg.Bidder() != "criteo" {
		t.Fatalf("legacy bidder = %q", tg.Bidder())
	}
	p, ok := tg.Price()
	if !ok || p != 0.42 {
		t.Fatalf("legacy price = %v %v", p, ok)
	}
}

func TestCurrencyConversion(t *testing.T) {
	if v, ok := ToUSD(1, EUR); !ok || v != 1.14 {
		t.Fatalf("EUR = %v, %v", v, ok)
	}
	if v, ok := ToUSD(100, JPY); !ok || v != 0.91 {
		t.Fatalf("JPY = %v", v)
	}
	if v, ok := ToUSD(2, Currency("XXX")); ok || v != 2 {
		t.Fatalf("unknown currency = %v, %v", v, ok)
	}
}

func TestBidUSDCPM(t *testing.T) {
	b := Bid{CPM: 2, Currency: GBP}
	if got := b.USDCPM(); got != 2.6 {
		t.Fatalf("USDCPM = %v", got)
	}
}

func TestTargetingKeysAllRecognized(t *testing.T) {
	for _, k := range targetingKeys {
		if !IsTargetingKey(k) {
			t.Errorf("key %q from targetingKeys not recognized", k)
		}
	}
}
