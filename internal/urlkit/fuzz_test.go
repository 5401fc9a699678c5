package urlkit

import (
	"slices"
	"strings"
	"testing"
)

// FuzzQuery checks Queries.Parse and WithQuery against their net/url
// references on arbitrary input. Parsing raw must agree with
// refQueryParams on nil-ness and on every key's first value, and come
// back strictly key-sorted. Parsed into used storage, rewound or not,
// raw must read as it does into fresh storage, and the query parsed
// there before must stay as it was. WithQuery then gets raw's own pieces: the
// text before the first '?' as the base, and the '&'/'='-split query
// text as pairs in input order — out of key order, with keys repeated
// and bytes that need escaping. It must produce the bytes refWithParams
// builds from a map assigned pair by pair (the last value of a key
// wins), and the same bytes again from the key-sorted form of the pairs, without
// changing the query it was given. AppendQuery onto a non-empty prefix
// must give the prefix followed by those same bytes, leave the prefix as
// it was and, again, the query too. WithLastValue, handed the last
// value as bytes, must build the bytes WithQuery builds from the pairs
// and give the query that value back.
// The committed corpus under testdata/fuzz/FuzzQuery/ holds one URL of
// each shape the simulation mints and the malformed cases of
// fastpath_test.go's corpus.
func FuzzQuery(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw string) {
		checkParseQuery(t, raw)
		checkParseIntoUsed(t, raw)

		base, rawQuery, _ := strings.Cut(raw, "?")
		var q Query
		m := map[string]string{}
		for _, pair := range strings.Split(rawQuery, "&") {
			k, v, _ := strings.Cut(pair, "=")
			q = append(q, Param{k, v})
			m[k] = v
		}
		want := refWithParams(base, m)
		given := slices.Clone(q)
		if got := WithQuery(base, q); got != want {
			t.Fatalf("WithQuery(%q, %v) = %q, reference %q", base, q, got, want)
		}
		if !slices.Equal(q, given) {
			t.Fatalf("WithQuery changed its query argument %v to %v", given, q)
		}
		if got := WithQuery(base, queryOf(m)); got != want {
			t.Fatalf("WithQuery(%q, %v) = %q, reference %q", base, queryOf(m), got, want)
		}
		const prefix = "div-1|hb|"
		dst := append(make([]byte, 0, len(prefix)+len(raw)/2), prefix...)
		if got := AppendQuery(dst, base, q); string(got) != prefix+want {
			t.Fatalf("AppendQuery(%q, %q, %v) = %q, want the prefix and %q", prefix, base, q, got, want)
		}
		if string(dst) != prefix || !slices.Equal(q, given) {
			t.Fatalf("AppendQuery changed its arguments: prefix %q, query %v to %v", dst, given, q)
		}
		checkWithLastValue(t, base, q)
	})
}

// FuzzHost checks Host against its net/url reference, refHost, on
// arbitrary input: the same lower-cased host, and "" wherever net/url
// rejects the URL. The committed corpus under testdata/fuzz/FuzzHost/
// holds one URL of each shape the simulation mints and the two
// malformed escapes (in a path and in a fragment) the fast path once
// accepted.
func FuzzHost(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw string) {
		if got, want := Host(raw), refHost(raw); got != want {
			t.Fatalf("Host(%q) = %q, reference %q", raw, got, want)
		}
	})
}

// usedQuery is the URL parsed into storage before raw is: more pairs
// than most inputs, out of key order, so that a parse writing past its
// own pairs, or sorting into the earlier ones, shows.
const usedQuery = "https://creatives.example/render?slot=div-1&hb_pb=0.50&channel=hb&hb_bidder=rubicon&size=300x250&zz=%7E"

// checkParseIntoUsed parses raw into storage that already holds another
// query, once without rewinding it and once after Reset, and requires
// each result to equal a parse into fresh storage, nil-ness included.
// The query parsed first must be unchanged by the parse that follows it.
func checkParseIntoUsed(t *testing.T, raw string) {
	t.Helper()
	fresh := parseQuery(raw)
	var qs Queries
	before := qs.Parse(usedQuery)
	kept := slices.Clone(before)
	for _, step := range []string{"after another query", "after Reset"} {
		got := qs.Parse(raw)
		if (got == nil) != (fresh == nil) || !slices.Equal(got, fresh) {
			t.Fatalf("Parse(%q) %s = %#v, into fresh storage %#v", raw, step, got, fresh)
		}
		if step == "after another query" {
			if !slices.Equal(before, kept) {
				t.Fatalf("Parse(%q) changed the query parsed before it: %v, was %v", raw, before, kept)
			}
			qs.Reset()
			qs.Parse(usedQuery)
			qs.Reset()
		}
	}
}
