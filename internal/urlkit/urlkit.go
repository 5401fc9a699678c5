// Package urlkit provides URL helpers used by the request inspector:
// query-parameter scanning for HB-specific keys, registrable-domain
// extraction (a simplified public-suffix view, sufficient for matching
// demand-partner endpoints), and host normalization.
//
// The helpers here sit on the crawl's per-request hot path (every hop of
// every simulated request parses a host or a query), so each has a
// hand-rolled fast path that avoids net/url's allocation cost for the
// clean absolute URLs the simulation mints; anything unusual falls back
// to net/url so the semantics stay exactly the standard library's.
package urlkit

import (
	"net/url"
	"slices"
	"strings"
	"unsafe"
)

// multiLabelSuffixes lists the multi-label public suffixes that actually
// occur among ad-tech endpoints; anything else is treated as a one-label
// TLD. A full public-suffix list is unnecessary for the closed world of
// demand-partner hosts this library matches against.
var multiLabelSuffixes = map[string]bool{
	"co.uk": true, "org.uk": true, "ac.uk": true, "gov.uk": true,
	"com.au": true, "net.au": true, "org.au": true,
	"co.jp": true, "ne.jp": true, "or.jp": true,
	"com.br": true, "com.cn": true, "com.tr": true, "com.mx": true,
	"co.in": true, "co.kr": true, "co.za": true, "com.sg": true,
	"com.hk": true, "com.tw": true,
}

// Host returns the lower-cased host (without port) of a raw URL, or ""
// when the URL cannot be parsed.
func Host(raw string) string {
	// Fast path: a plain absolute URL ("scheme://host[:port]/..."). The
	// host substring is returned without allocating unless it needs
	// lower-casing. Anything the strict byte check below does not accept
	// (userinfo, IPv6 literals, escapes, spaces, a non-numeric port, a
	// second colon, ...) falls through to net/url so the semantics —
	// including its rejections — stay exactly the standard library's.
	// So does an escape in the path or the fragment: net/url rejects a
	// malformed one, which makes the host "".
	if i := strings.Index(raw, "://"); i > 0 && isPlainScheme(raw[:i]) && !hasControlByte(raw) {
		rest := raw[i+3:]
		end := len(rest)
		for j := 0; j < len(rest); j++ {
			c := rest[j]
			if c == '/' || c == '?' || c == '#' {
				end = j
				break
			}
		}
		if host, ok := plainHostPort(rest[:end]); ok && !escapeOutsideQuery(rest[end:]) {
			return lowerASCII(host)
		}
	}
	u, err := url.Parse(raw)
	if err != nil {
		return ""
	}
	return strings.ToLower(u.Hostname())
}

// escapeOutsideQuery reports whether a URL's path-query-fragment tail
// has a '%' in its path or its fragment, the parts whose escapes net/url
// validates. The query is left out: net/url keeps it raw.
func escapeOutsideQuery(tail string) bool {
	pre, frag, _ := strings.Cut(tail, "#")
	path, _, _ := strings.Cut(pre, "?")
	return strings.IndexByte(path, '%') >= 0 || strings.IndexByte(frag, '%') >= 0
}

// plainHostPort strips an optional numeric port from a "host[:port]"
// authority and reports whether every hostname byte is an ordinary
// registered-name character (letters, digits, '.', '-', '_'). Anything
// else — including the characters net/url rejects with an error — must
// take the slow path.
func plainHostPort(s string) (host string, ok bool) {
	host = s
	if j := strings.IndexByte(s, ':'); j >= 0 {
		host = s[:j]
		port := s[j+1:]
		for k := 0; k < len(port); k++ {
			if port[k] < '0' || port[k] > '9' {
				return "", false
			}
		}
	}
	for k := 0; k < len(host); k++ {
		c := host[k]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z',
			'0' <= c && c <= '9', c == '.', c == '-', c == '_':
		default:
			return "", false
		}
	}
	return host, true
}

// isPlainScheme reports whether s looks like an ordinary URL scheme
// (letters only — covers http/https, which is all the simulation mints).
func isPlainScheme(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z') {
			return false
		}
	}
	return len(s) > 0
}

// isLowerScheme is isPlainScheme restricted to lower-case (the form
// url.URL.String would emit unchanged).
func isLowerScheme(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 'a' || c > 'z' {
			return false
		}
	}
	return len(s) > 0
}

// isCleanPathBytes reports whether every byte of a URL path is one
// net/url's String would pass through unescaped (the unreserved and
// path sub-delim sets). Anything else — '?', '#', '%', spaces,
// controls, non-ASCII — disqualifies the fast path.
func isCleanPathBytes(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case c == '-' || c == '.' || c == '_' || c == '~' || c == '/' ||
			c == ':' || c == '@' || c == '$' || c == '&' || c == '+' ||
			c == ',' || c == ';' || c == '=' || c == '!' || c == '\'' ||
			c == '(' || c == ')' || c == '*':
		default:
			return false
		}
	}
	return true
}

// LowerASCII lower-cases s, allocating only when it contains upper-case
// ASCII or non-ASCII bytes (generated hosts and wrapper-emitted keys are
// already lower-case). Shared by the host normalization here and the
// hb-targeting key matching.
func LowerASCII(s string) string {
	for i := 0; i < len(s); i++ {
		if c := s[i]; 'A' <= c && c <= 'Z' || c >= 0x80 {
			return strings.ToLower(s)
		}
	}
	return s
}

func lowerASCII(s string) string { return LowerASCII(s) }

// RegistrableDomain reduces a hostname to its registrable domain
// (eTLD+1): "prebid.adnxs.com" -> "adnxs.com", "x.y.co.uk" -> "y.co.uk".
// IP literals and single-label hosts are returned unchanged.
func RegistrableDomain(host string) string {
	host = lowerASCII(strings.TrimSuffix(host, "."))
	if host == "" || strings.Contains(host, ":") {
		return host
	}
	// Scan label boundaries from the right instead of materializing a
	// label slice: dot3 < dot2 are the second- and third-from-last dots.
	dot2, dot3 := -1, -1
	dots := 0
	for i := len(host) - 1; i >= 0; i-- {
		if host[i] != '.' {
			continue
		}
		dots++
		switch dots {
		case 2:
			dot2 = i
		case 3:
			dot3 = i
		}
	}
	if dots <= 1 { // one or two labels
		return host
	}
	if dots == 3 && isIPv4(host) {
		return host
	}
	tail2 := host[dot2+1:]
	if multiLabelSuffixes[tail2] {
		return host[dot3+1:] // dot3 == -1 when exactly three labels
	}
	return tail2
}

func isIPv4(host string) bool {
	run := 0
	for i := 0; i < len(host); i++ {
		c := host[i]
		switch {
		case c == '.':
			if run == 0 {
				return false
			}
			run = 0
		case c >= '0' && c <= '9':
			run++
			if run > 3 {
				return false
			}
		default:
			return false
		}
	}
	return run > 0
}

// Param is one key/value pair of a Query.
type Param struct {
	Key, Value string
}

// Query is a URL query as key/value pairs sorted by key, each key once.
// It is the one form a query takes on the crawl path: builders write it
// as a literal in key order, WithQuery encodes it in that order, and
// Queries.Parse reads a URL's query back into one. A built or parsed
// Query is shared by every hop of its request: treat it as read-only.
type Query []Param

// search returns the index of the first pair whose key is not below k.
func (q Query) search(k string) int {
	lo, hi := 0, len(q)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if q[m].Key < k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Lookup returns the value of key k and whether the query has it.
func (q Query) Lookup(k string) (string, bool) {
	if i := q.search(k); i < len(q) && q[i].Key == k {
		return q[i].Value, true
	}
	return "", false
}

// Get returns the value of key k, or "" when the query lacks it.
func (q Query) Get(k string) string {
	v, _ := q.Lookup(k)
	return v
}

// Set assigns v to key k, inserting the pair at its sorted place when k
// is new: the map assignment of a query built key by key.
func (q *Query) Set(k, v string) {
	i := q.search(k)
	if i < len(*q) && (*q)[i].Key == k {
		(*q)[i].Value = v
		return
	}
	*q = slices.Insert(*q, i, Param{k, v})
}

// sorted reports whether q's keys strictly increase.
func (q Query) sorted() bool {
	for i := 1; i < len(q); i++ {
		if q[i-1].Key >= q[i].Key {
			return false
		}
	}
	return true
}

// sortKeys stably sorts q by key and keeps one pair per key: the first
// when keepLast is false, the last when it is true.
func sortKeys(q Query, keepLast bool) Query {
	slices.SortStableFunc(q, func(a, b Param) int { return strings.Compare(a.Key, b.Key) })
	n := 0
	for _, p := range q {
		if n > 0 && q[n-1].Key == p.Key {
			if keepLast {
				q[n-1] = p
			}
			continue
		}
		q[n] = p
		n++
	}
	return q[:n]
}

// SortQuery sorts q by key in place, keeping each key's last value, and
// returns the sorted prefix: the query a map assigned q's pairs in order
// would hold. Built pair by pair and sorted once, a query costs no
// insertion per key.
func SortQuery(q Query) Query {
	if q.sorted() {
		return q
	}
	return sortKeys(q, true)
}

// Queries is append-only storage for the queries of one owner's visit
// or round: a page's parsed request queries, a wrapper's event queries.
// Each query it hands out is a full slice of its buffer (cap == len),
// so appending to one copies it instead of writing into the next, and
// the buffer never moves under a query it handed out: when it grows,
// the earlier queries keep the array they were written into. Reset
// rewinds it, and every query handed out before is invalid from then
// on. The zero value is ready to use.
type Queries struct {
	buf Query
}

// Reset rewinds q for its owner's next visit or round, dropping the
// strings its pairs held. Once the buffer covers the largest visit it
// has seen, filling it again allocates nothing.
func (q *Queries) Reset() {
	clear(q.buf)
	q.buf = q.buf[:0]
}

// Add stores pairs, written as a literal is (in key order, each key
// once), and returns them as a Query in q's storage.
func (q *Queries) Add(pairs ...Param) Query {
	n := len(q.buf)
	q.buf = append(q.buf, pairs...)
	return q.buf[n:len(q.buf):len(q.buf)]
}

// Parse parses the query component of a raw URL into q's storage and
// returns it as a Query that keeps each key's first value. Parsing is
// tolerant: a malformed query yields the parameters that could be
// recovered, and nil when none could. A URL without a query yields an
// empty, non-nil Query and stores nothing.
func (q *Queries) Parse(raw string) Query {
	// Locate the query without parsing the whole URL: the fragment is
	// cut off first, exactly as net/url does, so a '?' inside it
	// ("#/route?x=y") is not mistaken for a query. The fast path applies
	// only to absolute URLs net/url is sure to accept: an authority that
	// passes the strict byte check, no control byte before the fragment,
	// and no escape in the path or the fragment (net/url rejects a
	// malformed one). Anything else takes the net/url slow path so its
	// semantics (a nil result on parse error) are preserved exactly.
	pre, frag, _ := strings.Cut(raw, "#")
	rq := ""
	if i := strings.IndexByte(pre, '?'); i >= 0 {
		rq = pre[i+1:]
		pre = pre[:i]
	}
	fast := false
	if i := strings.Index(pre, "://"); i > 0 && isPlainScheme(pre[:i]) {
		rest := pre[i+3:]
		end := len(rest)
		if j := strings.IndexByte(rest, '/'); j >= 0 {
			end = j
		}
		path := rest[end:]
		_, ok := plainHostPort(rest[:end])
		fast = ok && !hasControlByte(path) && !hasControlByte(rq) &&
			strings.IndexByte(path, '%') < 0 && strings.IndexByte(frag, '%') < 0
	}
	if !fast {
		u, err := url.Parse(raw)
		if err != nil {
			return nil
		}
		rq = u.RawQuery
	}
	if rq == "" {
		return Query{}
	}
	start := len(q.buf)
	q.buf = slices.Grow(q.buf, strings.Count(rq, "&")+1)
	sawErr := false
	for rq != "" {
		var pair string
		pair, rq, _ = strings.Cut(rq, "&")
		if pair == "" {
			continue
		}
		if strings.IndexByte(pair, ';') >= 0 {
			// net/url rejects semicolon separators; drop the pair like
			// url.ParseQuery drops invalid pairs.
			sawErr = true
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		k, okK := unescapeComponent(k)
		if !okK {
			sawErr = true
			continue
		}
		v, okV := unescapeComponent(v)
		if !okV {
			sawErr = true
			continue
		}
		q.buf = append(q.buf, Param{k, v})
	}
	out := q.buf[start:]
	if sawErr && len(out) == 0 {
		// url.ParseQuery returns (empty, err) when nothing was
		// recovered, which the nil-on-failure contract maps to nil.
		return nil
	}
	if !out.sorted() {
		out = sortKeys(out, false) // first value wins, like v[0]
		q.buf = q.buf[:start+len(out)]
	}
	return out[:len(out):len(out)]
}

// hasControlByte reports whether s contains an ASCII control character
// (the bytes net/url rejects anywhere in a URL).
func hasControlByte(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < 0x20 || s[i] == 0x7f {
			return true
		}
	}
	return false
}

// unescapeComponent is url.QueryUnescape with a zero-alloc fast path for
// components containing no escapes.
func unescapeComponent(s string) (string, bool) {
	if strings.IndexByte(s, '%') < 0 && strings.IndexByte(s, '+') < 0 {
		return s, true
	}
	u, err := url.QueryUnescape(s)
	if err != nil {
		return "", false
	}
	return u, true
}

// WithQuery returns base with q's parameters appended, preserving any
// query base already has; a key in both takes q's value. Keys are
// encoded sorted, so generated URLs are stable across runs. A q out of
// key order, or with a key repeated, encodes as a map assigned pair by
// pair would (the last value of a key wins): a misordered literal costs
// a copy, never different bytes.
func WithQuery(base string, q Query) string {
	q = keySorted(q)
	if !plainBase(base) {
		return slowWithQuery(base, q)
	}
	if len(q) == 0 {
		return base
	}
	b := appendPairs(make([]byte, 0, encodedLen(base, q)), base, q)
	// The URL's only allocation: b is never written again, so the string
	// takes over its memory the way strings.Builder.String does.
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// WithLastValue returns WithQuery(base, q) where q's last value is v,
// and sets that value to v's copy inside the returned URL: a value built
// for the URL that carries it (a sync uid, a timestamp) is written once,
// into the URL, and the query the request is prefilled with reads it
// there. The URL is one allocation when q is key-sorted (so its last key
// sorts last), no byte of v needs escaping and base takes the fast path;
// otherwise the value gets a string of its own. q must be non-empty, and
// v may be reused once the call returns.
func WithLastValue(base string, q Query, v []byte) string {
	last := &q[len(q)-1]
	if !plainBase(base) || !q.sorted() || !queryClean(v) {
		last.Value = string(v)
		return WithQuery(base, q)
	}
	last.Value = ""
	b := appendPairs(make([]byte, 0, encodedLen(base, q)+len(v)), base, q)
	b = append(b, v...)
	s := unsafe.String(unsafe.SliceData(b), len(b))
	last.Value = s[len(s)-len(v):]
	return s
}

// AppendQuery appends WithQuery(base, q) to dst and returns the extended
// buffer: a URL written in place, inside a larger body, without a string
// of its own. dst grows at most once on the fast path.
func AppendQuery(dst []byte, base string, q Query) []byte {
	q = keySorted(q)
	if !plainBase(base) {
		return append(dst, slowWithQuery(base, q)...)
	}
	return appendPairs(slices.Grow(dst, encodedLen(base, q)), base, q)
}

// keySorted returns q when its keys strictly increase, else a sorted
// copy that keeps each key's last value.
func keySorted(q Query) Query {
	if q.sorted() {
		return q
	}
	return sortKeys(slices.Clone(q), true)
}

// plainBase is the fast-path check of WithQuery and AppendQuery: a clean
// absolute base with no query/fragment and nothing net/url would
// re-normalize or reject — a lower-case scheme (url.URL.String
// lower-cases schemes), an authority that passes the strict host[:port]
// check (net/url rejects a non-numeric port, and then base comes back as
// it is) and only bytes url.String leaves untouched in the path. For such
// a base appendPairs writes the bytes the net/url path builds
// (url.Values.Encode sorts keys and escapes with QueryEscape).
func plainBase(base string) bool {
	i := strings.Index(base, "://")
	if i <= 0 || !isLowerScheme(base[:i]) {
		return false
	}
	rest := base[i+3:]
	j := strings.IndexByte(rest, '/')
	if j < 0 || !isCleanPathBytes(rest[j:]) {
		return false
	}
	_, ok := plainHostPort(rest[:j])
	return ok
}

// slowWithQuery is WithQuery through net/url, for any base plainBase
// does not accept.
func slowWithQuery(base string, q Query) string {
	u, err := url.Parse(base)
	if err != nil {
		return base
	}
	v := u.Query()
	for _, p := range q {
		v.Set(p.Key, p.Value)
	}
	u.RawQuery = v.Encode() // Encode sorts keys.
	return u.String()
}

// encodedLen returns the length of base with the key-sorted q appended.
func encodedLen(base string, q Query) int {
	n := len(base) + 2*len(q) // '?' or '&', and '=', per pair
	for _, p := range q {
		n += queryEscapedLen(p.Key) + queryEscapedLen(p.Value)
	}
	return n
}

// appendPairs appends base and then q's pairs, escaped, in order.
func appendPairs(dst []byte, base string, q Query) []byte {
	dst = append(dst, base...)
	for i, p := range q {
		if i == 0 {
			dst = append(dst, '?')
		} else {
			dst = append(dst, '&')
		}
		dst = appendQueryEscaped(dst, p.Key)
		dst = append(dst, '=')
		dst = appendQueryEscaped(dst, p.Value)
	}
	return dst
}

// queryUnescaped reports whether url.QueryEscape leaves c as it is.
func queryUnescaped(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
		c == '-' || c == '_' || c == '.' || c == '~'
}

// queryClean reports whether url.QueryEscape leaves every byte of v as
// it is.
func queryClean(v []byte) bool {
	for _, c := range v {
		if !queryUnescaped(c) {
			return false
		}
	}
	return true
}

// queryEscapedLen returns len(url.QueryEscape(s)): a space becomes '+',
// any other byte outside the unreserved set a three-byte %XX.
func queryEscapedLen(s string) int {
	n := len(s)
	for i := 0; i < len(s); i++ {
		if c := s[i]; c != ' ' && !queryUnescaped(c) {
			n += 2
		}
	}
	return n
}

// appendQueryEscaped appends url.QueryEscape(s) to dst, copying
// unescaped runs whole.
func appendQueryEscaped(dst []byte, s string) []byte {
	const hex = "0123456789ABCDEF"
	for {
		i := 0
		for i < len(s) && queryUnescaped(s[i]) {
			i++
		}
		dst = append(dst, s[:i]...)
		if i == len(s) {
			return dst
		}
		if c := s[i]; c == ' ' {
			dst = append(dst, '+')
		} else {
			dst = append(dst, '%', hex[c>>4], hex[c&15])
		}
		s = s[i+1:]
	}
}
