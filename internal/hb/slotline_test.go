package hb

import (
	"slices"
	"strings"
	"testing"
)

// refSlotLines is the strings.Split reading of a response body that
// prebid and gptlib used before SlotScanner: split at newlines, trim
// each line, split it at '|', skip lines of fewer than three fields.
func refSlotLines(body string) []SlotLine {
	var out []SlotLine
	for _, line := range strings.Split(body, "\n") {
		parts := strings.Split(strings.TrimSpace(line), "|")
		if len(parts) < 3 {
			continue
		}
		out = append(out, SlotLine{Slot: parts[0], Channel: parts[1], CreativeURL: parts[2],
			Fails: len(parts) > 3 && parts[3] == "fail"})
	}
	return out
}

func scanAll(body string) []SlotLine {
	var out []SlotLine
	sc := ScanSlotLines(body)
	for l, ok := sc.Next(); ok; l, ok = sc.Next() {
		out = append(out, l)
	}
	return out
}

// FuzzSlotLines holds SlotScanner to its strings.Split reference on
// arbitrary bytes: the same lines, fields and fail flags, in order. The
// committed corpus under testdata/fuzz/FuzzSlotLines/ holds the bodies
// the world's three ad servers write, a truncated one, and lines with
// white space, carriage returns, extra fields and too few.
func FuzzSlotLines(f *testing.F) {
	f.Fuzz(func(t *testing.T, body string) {
		if got, want := scanAll(body), refSlotLines(body); !slices.Equal(got, want) {
			t.Fatalf("body %q scans to %+v, reference %+v", body, got, want)
		}
	})
}

func TestSlotScanner(t *testing.T) {
	body := "div-1|hb|https://creatives.example/render?slot=div-1|fail\n" +
		"div-2|unfilled|\n" +
		" div-3|house|https://creatives.example/render?slot=div-3|x|fail\r\n" +
		"garbage\n\n|a|"
	want := []SlotLine{
		{Slot: "div-1", Channel: "hb", CreativeURL: "https://creatives.example/render?slot=div-1", Fails: true},
		{Slot: "div-2", Channel: "unfilled"},
		{Slot: "div-3", Channel: "house", CreativeURL: "https://creatives.example/render?slot=div-3"},
		{Channel: "a"},
	}
	if got := scanAll(body); !slices.Equal(got, want) {
		t.Fatalf("scan = %+v, want %+v", got, want)
	}
	n := testing.AllocsPerRun(100, func() {
		sc := ScanSlotLines(body)
		for _, ok := sc.Next(); ok; _, ok = sc.Next() {
		}
	})
	if n != 0 {
		t.Fatalf("scanning allocates %.0f times, want 0", n)
	}
}

func TestScanTargetingAllocatesNothing(t *testing.T) {
	q := query(map[string]string{"channel": "hb", KeyBidder: "rubicon", KeyPriceBuck: "0.50",
		KeyPrice: "0.5123", KeySize: "300x250", KeySource: "s2s", "size": "300x250", "slot": "div-1"})
	n := testing.AllocsPerRun(100, func() {
		ts := ScanTargeting(q)
		for _, _, ok := ts.Next(); ok; _, _, ok = ts.Next() {
		}
	})
	if n != 0 {
		t.Fatalf("scanning a creative URL's targeting allocates %.0f times, want 0", n)
	}
}
