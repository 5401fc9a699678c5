package urlkit

import (
	"net/url"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// refHost is the pre-overhaul net/url implementation of Host.
func refHost(raw string) string {
	u, err := url.Parse(raw)
	if err != nil {
		return ""
	}
	return strings.ToLower(u.Hostname())
}

// parseQuery parses raw's query into storage of its own.
func parseQuery(raw string) Query {
	var qs Queries
	return qs.Parse(raw)
}

// refQueryParams is the net/url reference for Queries.Parse: a
// key->first-value map, nil when nothing is recoverable.
func refQueryParams(raw string) map[string]string {
	u, err := url.Parse(raw)
	if err != nil {
		return nil
	}
	vals, err := url.ParseQuery(u.RawQuery)
	if err != nil && len(vals) == 0 {
		return nil
	}
	out := make(map[string]string, len(vals))
	for k, v := range vals {
		if len(v) > 0 {
			out[k] = v[0]
		} else {
			out[k] = ""
		}
	}
	return out
}

// refWithParams is the net/url reference for WithQuery, over a map.
func refWithParams(base string, params map[string]string) string {
	u, err := url.Parse(base)
	if err != nil {
		return base
	}
	q := u.Query()
	for k, v := range params {
		q.Set(k, v)
	}
	u.RawQuery = q.Encode()
	return u.String()
}

// corpus covers the URL shapes the simulation mints plus awkward edges.
var corpus = []string{
	"https://bid.adnxs.com/hb/v1/bid?bidder=appnexus",
	"https://creatives.example/render?channel=hb&hb_bidder=rubicon&hb_pb=0.50&hb_size=300x250&size=300x250&slot=div-gpt-ad-1",
	"https://adserver.site00042.example/serve",
	"https://www.site00042.example/",
	"https://securepubads.doubleclick.net/gampad/ads?site=x.example&slots=a%7C300x250,b%7C728x90&t=1548979200000",
	"https://hb.dfp.example/ssp/auction?site=s.example&slots=one%7C300x250",
	"https://sync.adnxs.com/pixel?uid=sim-0000abcd",
	"http://host.example:8080/path?a=1&b=2#frag",
	"https://cdn.prebid.example/prebid.js",
	"https://x.example/ads?hb_bidder=appnexus&hb_pb=0.50&empty",
	"https://x.example/a?k=v&k=other&dup=1&dup=2",
	"https://x.example/a?pct=100%25&plus=a+b&enc=%E2%82%AC",
	"https://x.example/a?bad=%zz&good=1",
	"https://x.example/a?&&x=1&",
	"https://x.example/a?novalue",
	"https://x.example/a?=justvalue",
	"https://UPPER.Example/Path?Q=1",
	"://bad",
	"",
	"not a url at all",
	// Regression cases for the fast paths: a '?' inside the fragment is
	// not a query, and hosts net/url rejects must stay rejected.
	"https://pub.example/page#frag?hb_bidder=x",
	"https://pub.example/page#/route?x=y",
	"http://exa mple.com/x",
	"http://exa mple.com/x?a=1",
	"http://a:b:c/x",
	"http://a:b:c/x?a=1",
	"http://host.example:notaport/x",
	"http://user@host.example/x",
	"http://[::1]:8080/x",
	"http://ho%41st.example/x",
	"http://host.example/a\x01b?k=v",
	"http://host.example/x?a;b=1",
	"http://host.example/x?bad=%zz",
	"http://host.example/x?bad=%zz&worse=%zy",
	// A malformed escape in the path or the fragment makes net/url
	// reject the URL, so Host must give "" for it too.
	"http://h/%0X",
	"http://h/a#%zz",
	"http://h/a?q=%zz#ok",
}

func TestHostMatchesNetURL(t *testing.T) {
	for _, raw := range corpus {
		if got, want := Host(raw), refHost(raw); got != want {
			t.Errorf("Host(%q) = %q, reference %q", raw, got, want)
		}
	}
}

// queryOf returns the key-sorted Query holding m's pairs.
func queryOf(m map[string]string) Query {
	var q Query
	for k, v := range m {
		q.Set(k, v)
	}
	return q
}

// checkParseQuery reports where parseQuery(raw) departs from the net/url
// reference: nil-ness, the key set and each key's first value, and a
// strictly key-sorted result.
func checkParseQuery(t *testing.T, raw string) {
	t.Helper()
	got, want := parseQuery(raw), refQueryParams(raw)
	if (got == nil) != (want == nil) {
		t.Errorf("parseQuery(%q) nil-ness = %v, reference %v", raw, got == nil, want == nil)
		return
	}
	if len(got) != len(want) {
		t.Errorf("parseQuery(%q) = %v, reference %v", raw, got, want)
		return
	}
	for k, v := range want {
		if g, ok := got.Lookup(k); !ok || g != v {
			t.Errorf("parseQuery(%q) value of %q = %q (present %v), reference %q", raw, k, g, ok, v)
		}
	}
	if !got.sorted() {
		t.Errorf("parseQuery(%q) = %v, not strictly key-sorted", raw, got)
	}
}

func TestQueryParamsMatchesNetURL(t *testing.T) {
	for _, raw := range corpus {
		checkParseQuery(t, raw)
	}
}

// TestParseQueryNoQueryAllocatesNothing: a URL without a query parses to
// an empty, non-nil Query at no allocation, even into empty storage.
func TestParseQueryNoQueryAllocatesNothing(t *testing.T) {
	for _, raw := range []string{"https://adserver.site00042.example/serve", "https://cdn.prebid.example/prebid.js", "https://www.site00042.example/#/route"} {
		var q Query
		var qs Queries
		if n := testing.AllocsPerRun(100, func() { q = qs.Parse(raw) }); n != 0 {
			t.Errorf("Parse(%q) allocates %.0f times, want 0", raw, n)
		}
		if q == nil || len(q) != 0 {
			t.Errorf("Parse(%q) = %#v, want an empty non-nil Query", raw, q)
		}
	}
}

func TestWithParamsMatchesNetURL(t *testing.T) {
	paramSets := []map[string]string{
		{"bidder": "appnexus"},
		{"slot": "div-gpt-ad-1", "size": "300x250", "channel": "hb",
			"hb_bidder": "rubicon", "hb_pb": "0.50", "hb_size": "300x250"},
		{"slots": "a|300x250,b|728x90", "site": "x.example", "t": "1548979200000"},
		{"q": "a b+c&d=e", "euro": "€", "empty": ""},
		{},
		// Bytes QueryEscape rewrites, in keys and values alike.
		{"sp ace": "a b", "plus+": "1+2", "pct%": "100%", "sl/ash": "a/b/c",
			"til~de": "~x~", "amp&": "a&b", "eq=": "k=v", "ünï": "日本語", "%zz": "\x00\xff"},
		manyParams(20),
	}
	bases := []string{
		"https://bid.adnxs.com/hb/v1/bid",
		"https://creatives.example/render",
		"https://adserver.site00042.example/serve",
		"https://securepubads.doubleclick.net/gampad/ads",
		"https://host.example/path?have=query",
		"://bad",
		// Fast-path guard regressions: forms url.String re-normalizes.
		"HTTP://host.example/path",
		"https://host.example/café",
		"https://host.example/pa\"th",
		"https://host.example/pa th",
		"https://ho;st.example/x",
		"https://host.example/a!b'(c)*d",
	}
	for _, base := range bases {
		for _, params := range paramSets {
			want := refWithParams(base, params)
			q := queryOf(params)
			if got := WithQuery(base, q); got != want {
				t.Errorf("WithQuery(%q, %v) = %q, reference %q", base, q, got, want)
			}
			if got := AppendQuery([]byte("x|"), base, q); string(got) != "x|"+want {
				t.Errorf("AppendQuery(\"x|\", %q, %v) = %q, reference %q", base, q, got, want)
			}
			// Out of key order, and with a key repeated, the bytes stay
			// the reference's: the last value of a key wins.
			messy := slices.Clone(q)
			slices.Reverse(messy)
			if len(messy) > 0 {
				messy = append(Query{{messy[0].Key, "stale"}}, messy...)
			}
			if got := WithQuery(base, messy); got != want {
				t.Errorf("WithQuery(%q, %v) = %q, reference %q", base, messy, got, want)
			}
		}
	}
}

// checkWithLastValue requires WithLastValue(base, q with its last value
// blank, that value) to build WithQuery(base, q)'s bytes and to give the
// query the value back, as a substring of the URL when the value needs
// no string of its own: key-sorted q, a value that needs no escaping, a
// fast-path base.
func checkWithLastValue(t *testing.T, base string, q Query) {
	t.Helper()
	want := WithQuery(base, q)
	v := []byte(q[len(q)-1].Value)
	blank := slices.Clone(q)
	blank[len(blank)-1].Value = "x"
	got := WithLastValue(base, blank, v)
	last := blank[len(blank)-1].Value
	if got != want || last != string(v) {
		t.Fatalf("WithLastValue(%q, %v, %q) = %q with last value %q, want %q", base, blank, v, got, last, want)
	}
	if fast := plainBase(base) && q.sorted() && queryClean(v); fast && len(v) > 0 &&
		unsafe.StringData(last) != unsafe.StringData(got[len(got)-len(v):]) {
		t.Fatalf("WithLastValue(%q, %v, %q): the value %q is not the URL's own bytes", base, blank, v, last)
	}
}

// TestWithLastValue: the value written into the URL alone gives the
// URL WithQuery would build, on the fast path and off it (a value that
// needs escaping, a query out of key order, a base net/url rewrites),
// and costs no allocation beyond the URL.
func TestWithLastValue(t *testing.T) {
	queries := []Query{
		{{"site", "site00042.example"}, {"uid", "sim-0badc0de"}},
		{{"hb_pb.div-1", "0.50"}, {"site", "x.example"}, {"slots", "div-1|300x250"}, {"t", "1548979200000"}},
		{{"t", "-1"}},
		{{"site", "x.example"}, {"t", ""}},
		{{"site", "x.example"}, {"uid", "a b&c"}},
		{{"uid", "u"}, {"site", "x.example"}},
		{{"site", "x.example"}, {"site", "y.example"}},
	}
	for _, base := range []string{"https://sync.adnxs.com/pixel", "https://host.example/path?have=query", "HTTP://host.example/path", "://bad"} {
		for _, q := range queries {
			checkWithLastValue(t, base, q)
		}
	}
	q := Query{{"site", "site00042.example"}, {"uid", ""}}
	v := []byte("sim-0badc0de")
	if n := testing.AllocsPerRun(100, func() { WithLastValue("https://sync.adnxs.com/pixel", q, v) }); n != 1 {
		t.Fatalf("WithLastValue allocates %.0f times per URL, want 1", n)
	}
}

// TestWithParamsOneAllocation: the fast path builds each URL in one
// allocation, the returned string.
func TestWithParamsOneAllocation(t *testing.T) {
	q := Query{{"channel", "hb"}, {"hb_bidder", "rubicon"}, {"hb_pb", "0.50"},
		{"q", "a b/c"}, {"size", "300x250"}, {"slot", "div-gpt-ad-1"}}
	if n := testing.AllocsPerRun(100, func() { WithQuery("https://creatives.example/render", q) }); n != 1 {
		t.Fatalf("WithQuery allocates %.0f times per URL, want 1", n)
	}
}

// TestAppendQueryInPlace: written into a buffer with room, a URL costs
// no allocation at all.
func TestAppendQueryInPlace(t *testing.T) {
	q := Query{{"channel", "hb"}, {"hb_bidder", "rubicon"}, {"hb_pb", "0.50"},
		{"q", "a b/c"}, {"size", "300x250"}, {"slot", "div-gpt-ad-1"}}
	buf := make([]byte, 0, 512)
	if n := testing.AllocsPerRun(100, func() { AppendQuery(buf[:0], "https://creatives.example/render", q) }); n != 0 {
		t.Fatalf("AppendQuery allocates %.0f times into a buffer with room, want 0", n)
	}
}

// manyParams returns n distinct parameters k00=v00, k01=v01, ...
func manyParams(n int) map[string]string {
	m := make(map[string]string, n)
	for i := 0; i < n; i++ {
		d := string(rune('0'+i/10)) + string(rune('0'+i%10))
		m["k"+d] = "v" + d
	}
	return m
}

// TestRegistrableDomainScan pins the scan-based implementation against a
// strings.Split reference.
func TestRegistrableDomainScan(t *testing.T) {
	ref := func(host string) string {
		host = strings.ToLower(strings.TrimSuffix(host, "."))
		if host == "" || strings.Contains(host, ":") {
			return host
		}
		labels := strings.Split(host, ".")
		if len(labels) <= 2 {
			return host
		}
		ip := len(labels) == 4
		if ip {
			for _, l := range labels {
				if l == "" || len(l) > 3 {
					ip = false
					break
				}
				for _, c := range l {
					if c < '0' || c > '9' {
						ip = false
						break
					}
				}
			}
		}
		if ip {
			return host
		}
		tail2 := strings.Join(labels[len(labels)-2:], ".")
		if multiLabelSuffixes[tail2] {
			return strings.Join(labels[len(labels)-3:], ".")
		}
		return tail2
	}
	hosts := []string{
		"", "localhost", "example.com", "bid.adnxs.com", "a.b.c.d.example.com",
		"x.y.co.uk", "a.x.y.co.uk", "co.uk", "y.co.uk", "1.2.3.4", "1.2.3.4.5",
		"999.2.3.4", "1234.2.3.4", "a.1.2.3", "host.example.", "UPPER.Example.Com",
		"adserver.site00042.example", "creatives.example", "h:8080", "..", "a..b.c",
	}
	for _, h := range hosts {
		if got, want := RegistrableDomain(h), ref(h); got != want {
			t.Errorf("RegistrableDomain(%q) = %q, reference %q", h, got, want)
		}
	}
}
