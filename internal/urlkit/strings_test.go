package urlkit

import (
	"bytes"
	"strconv"
	"testing"
)

// FuzzStrings drives a Strings through the program its input spells,
// two bytes a step: the first picks the step's kind (its low two bits)
// and the room it reserves (the rest, up to 1.5 chunks), the second the
// number of bytes it appends, which may run past the room reserved and
// past the chunk's end. A step takes its bytes as one string, takes
// them appended in two parts, builds a URL with WithQuery, or abandons
// its room untaken. Every string handed out must read the bytes it was
// built from, and keep them to the end, through every later append and
// chunk roll-over. The committed corpus under
// testdata/fuzz/FuzzStrings/ holds small strings, strings past their
// room, a run of roll-overs and abandoned rooms.
func FuzzStrings(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		var s Strings
		var got, want []string
		for i := 0; i+1 < len(prog); i += 2 {
			kind, room, n := prog[i]&3, int(prog[i]>>2)*390, int(prog[i+1])*97
			pat := bytes.Repeat([]byte{'a' + byte(i/2%26)}, n)
			switch kind {
			case 0:
				got = append(got, s.Take(append(s.Room(room), pat...)))
				want = append(want, string(pat))
			case 1:
				b := append(s.Room(room), pat[:n/2]...)
				got = append(got, s.Take(append(b, pat[n/2:]...)))
				want = append(want, string(pat))
			case 2:
				q := Query{{"n", strconv.Itoa(n)}, {"v", string(pat[:min(n, 300)])}}
				got = append(got, s.WithQuery("https://x.example/p", q))
				want = append(want, WithQuery("https://x.example/p", q))
			case 3:
				if b := append(s.Room(room), pat...); len(b) != n {
					t.Fatalf("step %d: appended %d bytes into an abandoned room, want %d", i/2, len(b), n)
				}
			}
			if last := len(got) - 1; last >= 0 && got[last] != want[last] {
				t.Fatalf("step %d: got %q, built from %q", i/2, got[last], want[last])
			}
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("string %d changed after it was taken: %q, built from %q", k, got[k], want[k])
			}
		}
	})
}

// TestStringsAllocations: strings that fit the chunk cost nothing, a
// roll-over costs the new chunk, and a string appended past its room
// costs the array append moved it to while the chunk keeps its room.
func TestStringsAllocations(t *testing.T) {
	var s Strings
	s.Room(0)
	v := []byte("sim-0badc0de")
	if n := testing.AllocsPerRun(100, func() { s.Take(append(s.Room(len(v)), v...)) }); n != 0 {
		t.Fatalf("a string that fits the chunk allocates %.0f times", n)
	}
	if n := testing.AllocsPerRun(10, func() { s.Take(append(s.Room(stringsChunk), 'x')) }); n != 1 {
		t.Fatalf("a roll-over allocates %.0f times, want 1: the new chunk", n)
	}
	free := cap(s.chunk) - len(s.chunk)
	past := bytes.Repeat([]byte{'y'}, free+1)
	if n := testing.AllocsPerRun(1, func() { s.Take(append(s.Room(1), past...)) }); n != 1 {
		t.Fatalf("a string past the chunk's end allocates %.0f times, want 1: its own array", n)
	}
	if left := cap(s.chunk) - len(s.chunk); left != free {
		t.Fatalf("a string past the chunk's end used %d bytes of the chunk", free-left)
	}
}

// TestStringsWithQuery: a URL built in the chunk has WithQuery's bytes
// on the fast path and off it (a value that needs escaping, a query out
// of key order, a base net/url rewrites or rejects), and costs no
// allocation once the chunk has room.
func TestStringsWithQuery(t *testing.T) {
	queries := []Query{
		{{"site", "site00042.example"}, {"uid", "sim-0badc0de"}},
		{{"hb_pb.div-1", "0.50"}, {"site", "x.example"}, {"slots", "div-1|300x250"}, {"t", "1548979200000"}},
		{{"t", "-1"}},
		{{"site", "x.example"}, {"t", ""}},
		{{"site", "x.example"}, {"uid", "a b&c"}},
		{{"uid", "u"}, {"site", "x.example"}},
		{{"site", "x.example"}, {"site", "y.example"}},
		nil,
	}
	var s Strings
	for _, base := range []string{"https://sync.adnxs.com/pixel", "https://host.example/path?have=query", "HTTP://host.example/path", "://bad"} {
		for _, q := range queries {
			if got, want := s.WithQuery(base, q), WithQuery(base, q); got != want {
				t.Errorf("Strings.WithQuery(%q, %v) = %q, WithQuery gives %q", base, q, got, want)
			}
		}
	}
	q := queries[0]
	if n := testing.AllocsPerRun(100, func() { s.WithQuery("https://sync.adnxs.com/pixel", q) }); n != 0 {
		t.Fatalf("a URL built in a chunk with room allocates %.0f times", n)
	}
}
