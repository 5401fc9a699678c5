package hb

import "strings"

// SlotLine is one line of an ad-server or hosted-auction response body,
//
//	slot|channel|creativeURL[|fail]
//
// the wire shape every ad server of the simulation writes, one line per
// slot, and every wrapper reads.
type SlotLine struct {
	Slot, Channel, CreativeURL string
	// Fails is the render-failure marker, a fourth field "fail".
	Fails bool
}

// SlotScanner reads the lines of a response body in place: each field
// it returns is a substring of the body, so scanning allocates nothing.
// A line is trimmed of surrounding white space and split at '|'; a line
// with fewer than three fields is skipped (pages must tolerate garbage),
// and fields after the fourth are ignored.
type SlotScanner struct{ rest string }

// ScanSlotLines returns a scanner over body.
func ScanSlotLines(body string) SlotScanner { return SlotScanner{body} }

// Next returns the body's next well-formed line, or false when none is
// left.
func (s *SlotScanner) Next() (SlotLine, bool) {
	for s.rest != "" {
		var line string
		line, s.rest, _ = strings.Cut(s.rest, "\n")
		var l SlotLine
		var ok bool
		l.Slot, line, ok = strings.Cut(strings.TrimSpace(line), "|")
		if !ok {
			continue
		}
		if l.Channel, line, ok = strings.Cut(line, "|"); !ok {
			continue
		}
		if l.CreativeURL, line, ok = strings.Cut(line, "|"); ok {
			fourth, _, _ := strings.Cut(line, "|")
			l.Fails = fourth == "fail"
		}
		return l, true
	}
	return SlotLine{}, false
}
