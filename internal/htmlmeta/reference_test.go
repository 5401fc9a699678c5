package htmlmeta

import "strings"

// The scanner as it was before it matched names by ASCII case folding:
// it lowered a copy of the page (and of each tag's attribute text) and
// sliced the original with offsets found in the copy. Kept verbatim as
// the reference Parse must equal on all-ASCII input, where lowering
// preserves every byte offset. On other input it is wrong: lowering can
// change the byte length (invalid UTF-8 becomes the 3-byte U+FFFD), so
// its offsets drift and it can panic.

// refParse scans HTML source and collects script elements. It never fails:
// malformed markup yields whatever could be recovered, mirroring how
// browsers (and scrapers) treat real-world pages.
func refParse(src string) *Document {
	doc := &Document{}
	lower := strings.ToLower(src)
	inHead := false
	i := 0
	n := len(src)
	for i < n {
		lt := strings.IndexByte(lower[i:], '<')
		if lt < 0 {
			break
		}
		i += lt
		switch {
		case strings.HasPrefix(lower[i:], "<head"):
			if isTagBoundary(lower, i+5) {
				inHead = true
			}
			i++
		case strings.HasPrefix(lower[i:], "</head"):
			inHead = false
			i++
		case strings.HasPrefix(lower[i:], "<body"):
			inHead = false
			i++
		case strings.HasPrefix(lower[i:], "<title"):
			end := strings.Index(lower[i:], ">")
			if end < 0 {
				i++
				continue
			}
			start := i + end + 1
			close := strings.Index(lower[start:], "</title")
			if close < 0 {
				i++
				continue
			}
			doc.Title = strings.TrimSpace(src[start : start+close])
			i = start + close
		case strings.HasPrefix(lower[i:], "<script"):
			if !isTagBoundary(lower, i+7) {
				i++
				continue
			}
			tagEnd := strings.IndexByte(lower[i:], '>')
			if tagEnd < 0 {
				i = n
				continue
			}
			attrs := src[i+7 : i+tagEnd]
			s := Script{
				Src:    refAttrValue(attrs, "src"),
				InHead: inHead,
				Async:  refHasAttr(attrs, "async"),
				Defer:  refHasAttr(attrs, "defer"),
			}
			bodyStart := i + tagEnd + 1
			close := strings.Index(lower[bodyStart:], "</script")
			if close < 0 {
				if s.Src == "" {
					s.Inline = strings.TrimSpace(src[bodyStart:])
				}
				doc.Scripts = append(doc.Scripts, s)
				i = n
				continue
			}
			if s.Src == "" {
				s.Inline = strings.TrimSpace(src[bodyStart : bodyStart+close])
			}
			doc.Scripts = append(doc.Scripts, s)
			i = bodyStart + close + len("</script")
		default:
			i++
		}
	}
	return doc
}

// refAttrValue extracts a (single- or double-quoted, or bare) attribute value
// from a tag's attribute text, case-insensitively.
func refAttrValue(attrs, name string) string {
	lower := strings.ToLower(attrs)
	name = strings.ToLower(name)
	idx := 0
	for {
		p := strings.Index(lower[idx:], name)
		if p < 0 {
			return ""
		}
		p += idx
		// Must be a word boundary before and an '=' (possibly spaced) after.
		if p > 0 && isWordByte(lower[p-1]) {
			idx = p + len(name)
			continue
		}
		rest := p + len(name)
		for rest < len(attrs) && (attrs[rest] == ' ' || attrs[rest] == '\t') {
			rest++
		}
		if rest >= len(attrs) || attrs[rest] != '=' {
			idx = p + len(name)
			continue
		}
		rest++
		for rest < len(attrs) && (attrs[rest] == ' ' || attrs[rest] == '\t') {
			rest++
		}
		if rest >= len(attrs) {
			return ""
		}
		switch attrs[rest] {
		case '"', '\'':
			q := attrs[rest]
			end := strings.IndexByte(attrs[rest+1:], q)
			if end < 0 {
				return attrs[rest+1:]
			}
			return attrs[rest+1 : rest+1+end]
		default:
			end := rest
			for end < len(attrs) && !isSpaceByte(attrs[end]) && attrs[end] != '>' {
				end++
			}
			return attrs[rest:end]
		}
	}
}

// refHasAttr reports whether a bare boolean attribute is present.
func refHasAttr(attrs, name string) bool {
	lower := " " + strings.ToLower(attrs) + " "
	name = strings.ToLower(name)
	idx := 0
	for {
		p := strings.Index(lower[idx:], name)
		if p < 0 {
			return false
		}
		p += idx
		before := lower[p-1]
		afterIdx := p + len(name)
		after := byte(' ')
		if afterIdx < len(lower) {
			after = lower[afterIdx]
		}
		if !isWordByte(before) && (after == ' ' || after == '=' || after == '>') {
			if after != '=' {
				return true
			}
		}
		idx = p + len(name)
	}
}
