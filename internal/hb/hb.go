// Package hb defines the shared Header Bidding vocabulary: facets
// (client-side / server-side / hybrid), ad-slot sizes, bids, currencies and
// the wrapper targeting keys (hb_pb, hb_bidder, ...) that distinguish HB
// traffic from waterfall RTB. Every other package speaks these types.
package hb

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"headerbid/internal/urlkit"
)

// Facet identifies how a publisher deploys Header Bidding. The paper
// (Section 4) identifies exactly three facets in the wild.
type Facet int

const (
	// FacetUnknown marks pages where HB was detected but the deployment
	// style could not be classified.
	FacetUnknown Facet = iota
	// FacetClient is Client-Side HB: the full auction runs in the browser
	// and every bid response is visible to the page.
	FacetClient
	// FacetServer is Server-Side HB: a single request goes to one demand
	// partner which runs the auction remotely; only hb_* parameters in the
	// returned impression reveal HB.
	FacetServer
	// FacetHybrid combines both: client-side bids are collected and then
	// forwarded to an ad server that adds its own server-side bids.
	FacetHybrid
)

// String implements fmt.Stringer using the paper's names.
func (f Facet) String() string {
	switch f {
	case FacetClient:
		return "Client-Side HB"
	case FacetServer:
		return "Server-Side HB"
	case FacetHybrid:
		return "Hybrid HB"
	default:
		return "Unknown HB"
	}
}

// Short returns a compact label used in dataset records.
func (f Facet) Short() string {
	switch f {
	case FacetClient:
		return "client"
	case FacetServer:
		return "server"
	case FacetHybrid:
		return "hybrid"
	default:
		return "unknown"
	}
}

// ParseFacet inverts Short; unknown strings map to FacetUnknown.
func ParseFacet(s string) Facet {
	// Exact-match fast path for the canonical spellings Short emits:
	// the metrics fold parses a record's facet in several Add methods
	// per visit, and crawl records only ever carry these strings, so
	// the normalizing path below is cold in practice.
	switch s {
	case "client":
		return FacetClient
	case "server":
		return FacetServer
	case "hybrid":
		return FacetHybrid
	case "":
		return FacetUnknown
	}
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "client", "client-side", "client-side hb":
		return FacetClient
	case "server", "server-side", "server-side hb":
		return FacetServer
	case "hybrid", "hybrid hb":
		return FacetHybrid
	default:
		return FacetUnknown
	}
}

// Facets lists the three real facets in a stable order.
func Facets() []Facet { return []Facet{FacetClient, FacetServer, FacetHybrid} }

// Size is an ad-slot dimension in CSS pixels, e.g. 300x250.
type Size struct {
	W int
	H int
}

// sizeStrings interns the rendered form of every catalog size (built in
// init from the named constants below, so the catalog stays the single
// source of truth): the per-bid render of hb_size never allocates on
// the crawl hot path.
var sizeStrings map[Size]string

// String renders the conventional "WxH" form, interned for the catalog
// sizes that dominate real inventory (Figure 21).
func (s Size) String() string {
	if v, ok := sizeStrings[s]; ok {
		return v
	}
	b := make([]byte, 0, 12)
	b = strconv.AppendInt(b, int64(s.W), 10)
	b = append(b, 'x')
	b = strconv.AppendInt(b, int64(s.H), 10)
	return string(b)
}

// Area returns W*H, used to order slot sizes in Figure 23.
func (s Size) Area() int { return s.W * s.H }

// IsZero reports whether the size is unset.
func (s Size) IsZero() bool { return s.W == 0 && s.H == 0 }

// errEmptySize is ParseSize's error for the empty string, built once.
var errEmptySize = errors.New(`hb: malformed size ""`)

// ParseSize parses "300x250" (also tolerating "300X250" and surrounding
// spaces). It returns an error for anything else.
func ParseSize(str string) (Size, error) {
	// One-pass fast path for the canonical "300x250" spelling (digits,
	// one lower-case 'x', digits) — what the generator emits and what
	// the size-keyed metrics re-parse for every auction and bid of a
	// fold. Anything else (whitespace, 'X', signs, overflow) falls
	// through to the tolerant path, which accepts a superset and agrees
	// with the fast path wherever both succeed.
	if sz, ok := fastSize(str); ok {
		return sz, nil
	}
	if str == "" {
		// The size of an auction the detector saw none for, which the
		// slot-size folds parse for every such auction.
		return Size{}, errEmptySize
	}
	t := strings.TrimSpace(str)
	// Zero-alloc split on the single 'x'/'X' separator; ToLower would
	// allocate for the "300X250" spelling and Split always does.
	i := strings.IndexAny(t, "xX")
	if i < 0 || strings.IndexAny(t[i+1:], "xX") >= 0 {
		return Size{}, fmt.Errorf("hb: malformed size %q", str) //hbvet:allow hotalloc cold error path: generated worlds never produce malformed sizes
	}
	w, err := strconv.Atoi(strings.TrimSpace(t[:i]))
	if err != nil {
		return Size{}, fmt.Errorf("hb: malformed size %q: %v", str, err) //hbvet:allow hotalloc cold error path
	}
	h, err := strconv.Atoi(strings.TrimSpace(t[i+1:]))
	if err != nil {
		return Size{}, fmt.Errorf("hb: malformed size %q: %v", str, err) //hbvet:allow hotalloc cold error path
	}
	if w <= 0 || h <= 0 {
		return Size{}, fmt.Errorf("hb: non-positive size %q", str) //hbvet:allow hotalloc cold error path
	}
	return Size{W: w, H: h}, nil
}

// fastSize parses the canonical "WxH" spelling without trimming,
// scanning twice, or building errors. ok=false means "not canonical",
// never "malformed" — the caller's tolerant path owns that verdict.
func fastSize(s string) (Size, bool) {
	w, i := 0, 0
	for ; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			break
		}
		w = w*10 + int(c-'0')
		if w > 1<<24 {
			return Size{}, false
		}
	}
	if i == 0 || i >= len(s)-1 || s[i] != 'x' {
		return Size{}, false
	}
	h := 0
	for j := i + 1; j < len(s); j++ {
		c := s[j]
		if c < '0' || c > '9' {
			return Size{}, false
		}
		h = h*10 + int(c-'0')
		if h > 1<<24 {
			return Size{}, false
		}
	}
	if w <= 0 || h <= 0 {
		return Size{}, false
	}
	return Size{W: w, H: h}, true
}

// Common IAB slot sizes observed in the study (Figure 21).
var (
	SizeMediumRectangle = Size{300, 250} // "side banner", most popular
	SizeLeaderboard     = Size{728, 90}  // "top banner"
	SizeHalfPage        = Size{300, 600}
	SizeMobileBanner    = Size{320, 50}
	SizeBillboard       = Size{970, 250}
	SizeSkyscraper      = Size{160, 600}
	SizeLargeRectangle  = Size{336, 280}
	SizeSuperLeader     = Size{970, 90}
	SizeLargeMobile     = Size{320, 100}
	SizeFullBanner      = Size{468, 60}
	SizeWideSkyscraper  = Size{120, 600}
	SizeMobileSquare    = Size{320, 320}
	SizeSmallSquare     = Size{100, 200}
	SizeMobileSlim      = Size{300, 50}
	SizeSmallRect       = Size{300, 100}
)

func init() {
	catalog := []Size{
		SizeMediumRectangle, SizeLeaderboard, SizeHalfPage,
		SizeMobileBanner, SizeBillboard, SizeSkyscraper,
		SizeLargeRectangle, SizeSuperLeader, SizeLargeMobile,
		SizeFullBanner, SizeWideSkyscraper, SizeMobileSquare,
		SizeSmallSquare, SizeMobileSlim, SizeSmallRect,
	}
	sizeStrings = make(map[Size]string, len(catalog))
	for _, s := range catalog {
		b := make([]byte, 0, 12)
		b = strconv.AppendInt(b, int64(s.W), 10)
		b = append(b, 'x')
		b = strconv.AppendInt(b, int64(s.H), 10)
		sizeStrings[s] = string(b)
	}
}

// Currency is an ISO-4217 code. Bid prices in the study are normalized to
// USD CPM; other currencies occur in the wild and are converted.
type Currency string

// Currencies seen in HB responses, with fixed conversion rates to USD used
// by the simulation (rates frozen at the crawl period, Feb 2019).
const (
	USD Currency = "USD"
	EUR Currency = "EUR"
	GBP Currency = "GBP"
	JPY Currency = "JPY"
)

var usdRates = map[Currency]float64{
	USD: 1.0,
	EUR: 1.14,
	GBP: 1.30,
	JPY: 0.0091,
}

// ToUSD converts a CPM amount in the given currency to USD. Unknown
// currencies convert at 1.0 and are flagged by the second return value.
func ToUSD(amount float64, cur Currency) (float64, bool) {
	r, ok := usdRates[cur]
	if !ok {
		return amount, false
	}
	return amount * r, true
}

// NumberedIDs returns the IDs "<base><tag>1" … "<base><tag><n>" in one
// string, the k-th of them NumberedIDLen(base, tag, k) bytes long: a
// page's auction IDs, which records keep, built once per page and
// sliced by their readers, so a held record keeps no more than its
// page's IDs alive.
func NumberedIDs(base, tag string, n int) string {
	size := 0
	for k := 1; k <= n; k++ {
		size += NumberedIDLen(base, tag, k)
	}
	var b strings.Builder
	b.Grow(size)
	var num [20]byte
	for k := 1; k <= n; k++ {
		b.WriteString(base)
		b.WriteString(tag)
		b.Write(strconv.AppendInt(num[:0], int64(k), 10))
	}
	return b.String()
}

// NumberedIDLen returns the length of the ID "<base><tag><k>", k > 0.
func NumberedIDLen(base, tag string, k int) int {
	n := len(base) + len(tag) + 1
	for ; k >= 10; k /= 10 {
		n++
	}
	return n
}

// Bid is a single demand-partner bid for one ad unit.
type Bid struct {
	AuctionID string
	AdUnit    string
	Bidder    string // demand partner slug
	CPM       float64
	Currency  Currency
	Size      Size
	// Latency is how long the partner took to respond, as seen by the
	// browser (request sent -> response delivered to the page).
	Latency time.Duration
	// Late marks responses that arrived after the wrapper sent collected
	// bids to the ad server; late bids never participate in the auction.
	Late bool
	// DealID is set for private-marketplace deals (rare in a clean-state
	// crawl; kept for protocol completeness).
	DealID string
	// CreativeID identifies the creative served if this bid wins.
	CreativeID string
}

// USDCPM returns the bid's CPM converted to USD.
func (b Bid) USDCPM() float64 {
	v, _ := ToUSD(b.CPM, b.Currency)
	return v
}

// PriceBucket quantizes a CPM to prebid's default "medium" price
// granularity: $0.10 increments, capped at $20. The bucketed string is
// what wrappers actually put in hb_pb. Every bucket is interned, so the
// call allocates nothing.
func PriceBucket(cpm float64) string {
	if cpm < 0 {
		cpm = 0
	}
	if cpm > 20 {
		cpm = 20
	}
	cents := int(cpm*100) / 10 * 10
	if i := cents / 10; i >= 0 && i < len(priceBuckets) {
		return priceBuckets[i]
	}
	return renderBucket(cents) // NaN, on platforms where int(NaN) is negative
}

// priceBuckets holds renderBucket(10*i) for every bucket of [0, 20].
var priceBuckets [201]string

func init() {
	for i := range priceBuckets {
		priceBuckets[i] = renderBucket(10 * i)
	}
}

// renderBucket renders a bucket's cents as "D.CC" without fmt. Buckets
// step by $0.10, so the fractional part is one of ten constants.
func renderBucket(cents int) string {
	b := make([]byte, 0, 8)
	b = strconv.AppendInt(b, int64(cents/100), 10)
	b = append(b, '.')
	frac := cents % 100
	b = append(b, byte('0'+frac/10), byte('0'+frac%10))
	return string(b)
}

// Targeting keys set by HB wrappers on the ad-server request. Their
// presence distinguishes HB from waterfall RTB, whose notification URLs
// use DSP-specific parameter names (Section 3.1).
const (
	KeyBidder     = "hb_bidder"
	KeyPriceBuck  = "hb_pb"
	KeyAdID       = "hb_adid"
	KeySize       = "hb_size"
	KeySource     = "hb_source"
	KeyFormat     = "hb_format"
	KeyDeal       = "hb_deal"
	KeyCacheID    = "hb_cache_id"
	KeyCurrency   = "hb_currency"
	KeyPartner    = "hb_partner" // legacy wrappers
	KeyPrice      = "hb_price"   // legacy wrappers
	KeyBidderFull = "bidder"     // prebid bid-request parameter
)

// targetingKeys are the hb_* keys the IsTargetingKey scan recognizes.
var targetingKeys = [...]string{
	KeyBidder, KeyPriceBuck, KeyAdID, KeySize, KeySource, KeyFormat,
	KeyDeal, KeyCacheID, KeyCurrency, KeyPartner, KeyPrice,
}

// IsTargetingKey reports whether a query-parameter name is HB-specific.
// Matching is case-insensitive and accepts bidder-suffixed variants such
// as "hb_bidder_appnexus", which prebid emits with send-all-bids enabled.
func IsTargetingKey(name string) bool {
	n := urlkit.LowerASCII(name)
	if n == KeyBidderFull {
		return true
	}
	if !strings.HasPrefix(n, "hb_") {
		return false
	}
	for _, k := range targetingKeys {
		if strings.HasPrefix(n, k) && (len(n) == len(k) || n[len(k)] == '_') {
			return true
		}
	}
	return false
}

// Targeting is the key-value set a wrapper pushes to the ad server for one
// ad unit (Step 3 of the protocol).
type Targeting map[string]string

// AppendTargeting appends the standard targeting key-values of a
// winning client-side bid b, in key order (the key-sorted query a
// wrapper sends them to the ad server in), to dst: at most eight.
func AppendTargeting(dst urlkit.Query, b Bid) urlkit.Query {
	dst = append(dst, urlkit.Param{Key: KeyAdID, Value: b.CreativeID},
		urlkit.Param{Key: KeyBidder, Value: b.Bidder})
	if b.Currency != "" && b.Currency != USD {
		dst = append(dst, urlkit.Param{Key: KeyCurrency, Value: string(b.Currency)})
	}
	if b.DealID != "" {
		dst = append(dst, urlkit.Param{Key: KeyDeal, Value: b.DealID})
	}
	return append(dst,
		urlkit.Param{Key: KeyFormat, Value: "banner"},
		urlkit.Param{Key: KeyPriceBuck, Value: PriceBucket(b.USDCPM())},
		urlkit.Param{Key: KeySize, Value: b.Size.String()},
		urlkit.Param{Key: KeySource, Value: "client"})
}

// TargetingScanner walks the HB targeting of a query in key order
// without building a map. Keys are lower-cased; when several spellings
// of one key are present, only the one FoldWins picks is returned, with
// its value. A key already in lower case, the only kind wrappers send,
// costs no allocation.
type TargetingScanner struct {
	q urlkit.Query
	i int
}

// ScanTargeting returns a scanner over q's targeting.
func ScanTargeting(q urlkit.Query) TargetingScanner { return TargetingScanner{q: q} }

// Next returns the next targeting key, lower-cased, and its value, or
// false when none is left.
func (s *TargetingScanner) Next() (key, value string, ok bool) {
	for s.i < len(s.q) {
		p := s.q[s.i]
		s.i++
		if !IsTargetingKey(p.Key) {
			continue
		}
		if lk := urlkit.LowerASCII(p.Key); FoldWins(s.q, p.Key, lk) {
			return lk, p.Value, true
		}
	}
	return "", "", false
}

// FoldWins reports whether k is the spelling of its lower-cased form lk
// whose value a case-insensitive reader of q keeps: the spelling that is
// already lower case, otherwise the byte-smallest. A lower-case k always
// wins, so the common path neither scans q nor allocates.
func FoldWins(q urlkit.Query, k, lk string) bool {
	if k == lk {
		return true
	}
	if _, ok := q.Lookup(lk); ok {
		return false
	}
	for _, p := range q {
		if p.Key >= k {
			break // keys are sorted: only smaller spellings precede k
		}
		if urlkit.LowerASCII(p.Key) == lk {
			return false
		}
	}
	return true
}

// Bidder returns the bidder named by the targeting set ("" if absent).
func (t Targeting) Bidder() string {
	if v, ok := t[KeyBidder]; ok {
		return v
	}
	return t[KeyPartner]
}

// Price returns the price bucket (hb_pb) or raw price (hb_price) as a
// float, with ok=false when neither parses.
func (t Targeting) Price() (float64, bool) {
	for _, k := range []string{KeyPriceBuck, KeyPrice} {
		if v, ok := t[k]; ok {
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				return f, true
			}
		}
	}
	return 0, false
}
