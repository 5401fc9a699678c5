package urlkit

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestHost(t *testing.T) {
	cases := []struct{ in, want string }{
		{"https://bid.adnxs.com/hb/v1/bid?x=1", "bid.adnxs.com"},
		{"http://EXAMPLE.com/", "example.com"},
		{"https://example.com:8443/p", "example.com"},
		{"not a url at all ://", ""},
		{"", ""},
	}
	for _, c := range cases {
		if got := Host(c.in); got != c.want {
			t.Errorf("Host(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestRegistrableDomain(t *testing.T) {
	cases := []struct{ in, want string }{
		{"prebid.adnxs.com", "adnxs.com"},
		{"adnxs.com", "adnxs.com"},
		{"a.b.c.doubleclick.net", "doubleclick.net"},
		{"x.y.co.uk", "y.co.uk"},
		{"deep.x.y.co.uk", "y.co.uk"},
		{"localhost", "localhost"},
		{"192.168.1.10", "192.168.1.10"},
		{"Sub.Example.COM.", "example.com"},
		{"", ""},
		{"platform-one.co.jp", "platform-one.co.jp"},
		{"bid.platform-one.co.jp", "platform-one.co.jp"},
	}
	for _, c := range cases {
		if got := RegistrableDomain(c.in); got != c.want {
			t.Errorf("RegistrableDomain(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestSameRegistrableDomain: hosts of one partner share a registrable
// domain (the key requests are attributed to partners by), hosts of
// two partners do not, and an empty host has none.
func TestSameRegistrableDomain(t *testing.T) {
	if RegistrableDomain("bid.adnxs.com") != RegistrableDomain("sync.adnxs.com") {
		t.Fatal("same eTLD+1 not matched")
	}
	if RegistrableDomain("adnxs.com") == RegistrableDomain("rubiconproject.com") {
		t.Fatal("different domains matched")
	}
	if RegistrableDomain("") != "" {
		t.Fatal("empty host has a registrable domain")
	}
}

func TestQueryParams(t *testing.T) {
	p := parseQuery("https://x.example/ads?hb_pb=0.50&hb_bidder=appnexus&empty&hb_pb=9")
	if p.Get("hb_bidder") != "appnexus" || p.Get("hb_pb") != "0.50" {
		t.Fatalf("params = %v", p)
	}
	if _, ok := p.Lookup("empty"); !ok {
		t.Fatal("bare key missing")
	}
	if _, ok := p.Lookup("missing"); ok {
		t.Fatal("absent key found")
	}
	if parseQuery("://bad") != nil {
		t.Fatal("malformed URL should yield nil")
	}
}

func TestWithParamsDeterministic(t *testing.T) {
	base := "https://s.example/serve?keep=1"
	got := WithQuery(base, Query{{"b", "2"}, {"a", "1"}})
	want := "https://s.example/serve?a=1&b=2&keep=1"
	if got != want {
		t.Fatalf("WithQuery = %q, want %q", got, want)
	}
}

// TestQuerySet: Set keeps the query key-sorted, inserting new keys and
// overwriting present ones like a map assignment.
func TestQuerySet(t *testing.T) {
	var q Query
	for _, p := range []Param{{"t", "1"}, {"site", "a"}, {"slots", "x"}, {"hb_pb.b", "2"}, {"site", "b"}} {
		q.Set(p.Key, p.Value)
	}
	want := Query{{"hb_pb.b", "2"}, {"site", "b"}, {"slots", "x"}, {"t", "1"}}
	if !slices.Equal(q, want) {
		t.Fatalf("q = %v, want %v", q, want)
	}
}

// Property: params written by WithQuery are recovered by Queries.Parse.
func TestParamsRoundTripProperty(t *testing.T) {
	f := func(keysRaw, valsRaw []string) bool {
		params := map[string]string{}
		for i := 0; i < len(keysRaw) && i < len(valsRaw) && i < 5; i++ {
			k := sanitizeKey(keysRaw[i])
			if k == "" {
				continue
			}
			params[k] = valsRaw[i]
		}
		u := WithQuery("https://host.example/p", queryOf(params))
		got := parseQuery(u)
		for k, v := range params {
			if got.Get(k) != v {
				return false
			}
		}
		return len(got) == len(params)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func sanitizeKey(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9') || r == '_' {
			out = append(out, r)
		}
	}
	if len(out) > 12 {
		out = out[:12]
	}
	return string(out)
}
