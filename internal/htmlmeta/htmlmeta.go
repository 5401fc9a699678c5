// Package htmlmeta is a minimal, dependency-free HTML scanner. It extracts
// exactly what the static HB analysis needs from a page: the script tags
// (src attribute and inline body) that appear in the document, and whether
// each one occurs inside <head>. It is not a general HTML5 parser; it is a
// forgiving tokenizer in the spirit of how real detectors grep markup.
package htmlmeta

import "strings"

// Script describes one <script> element found in a document.
type Script struct {
	Src    string // value of the src attribute, "" for inline scripts
	Inline string // inline body for scripts without src
	InHead bool   // whether the element started inside <head>
	Async  bool
	Defer  bool
}

// Document is the result of scanning an HTML page.
type Document struct {
	Title   string
	Scripts []Script
}

// Parse scans HTML source and collects script elements. It never fails:
// malformed markup yields whatever could be recovered, mirroring how
// browsers (and scrapers) treat real-world pages.
func Parse(src string) *Document {
	doc := &Document{}
	ParseInto(doc, src)
	return doc
}

// ParseInto is Parse into a caller-owned Document: it overwrites doc and
// reuses the backing array of doc.Scripts, so a document parsed into
// again and again stops allocating. Tag and attribute names match by
// ASCII case folding on the source bytes, and every string it stores
// (Title, Src, Inline) is a substring of src.
func ParseInto(doc *Document, src string) {
	doc.Title = ""
	doc.Scripts = doc.Scripts[:0]
	inHead := false
	i := 0
	n := len(src)
	for i < n {
		lt := strings.IndexByte(src[i:], '<')
		if lt < 0 {
			break
		}
		i += lt
		switch {
		case hasPrefixFold(src[i:], "<head"):
			if isTagBoundary(src, i+5) {
				inHead = true
			}
			i++
		case hasPrefixFold(src[i:], "</head"):
			inHead = false
			i++
		case hasPrefixFold(src[i:], "<body"):
			inHead = false
			i++
		case hasPrefixFold(src[i:], "<title"):
			end := strings.IndexByte(src[i:], '>')
			if end < 0 {
				i++
				continue
			}
			start := i + end + 1
			close := indexFold(src[start:], "</title")
			if close < 0 {
				i++
				continue
			}
			doc.Title = strings.TrimSpace(src[start : start+close])
			i = start + close
		case hasPrefixFold(src[i:], "<script"):
			if !isTagBoundary(src, i+7) {
				i++
				continue
			}
			tagEnd := strings.IndexByte(src[i:], '>')
			if tagEnd < 0 {
				i = n
				continue
			}
			attrs := src[i+7 : i+tagEnd]
			s := Script{
				Src:    attrValue(attrs, "src"),
				InHead: inHead,
				Async:  hasAttr(attrs, "async"),
				Defer:  hasAttr(attrs, "defer"),
			}
			bodyStart := i + tagEnd + 1
			close := indexFold(src[bodyStart:], "</script")
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
}

// isTagBoundary reports whether the byte at position i terminates a tag
// name (whitespace, '>', '/', or end of input).
func isTagBoundary(src string, i int) bool {
	if i >= len(src) {
		return true
	}
	switch src[i] {
	case ' ', '\t', '\n', '\r', '>', '/':
		return true
	}
	return false
}

// lowerASCII folds an ASCII upper-case letter to lower case and returns
// every other byte unchanged.
func lowerASCII(b byte) byte {
	if 'A' <= b && b <= 'Z' {
		return b + 'a' - 'A'
	}
	return b
}

// hasPrefixFold reports whether s starts with prefix under ASCII case
// folding; prefix must be lower-case.
func hasPrefixFold(s, prefix string) bool {
	if len(s) < len(prefix) {
		return false
	}
	for j := 0; j < len(prefix); j++ {
		if lowerASCII(s[j]) != prefix[j] {
			return false
		}
	}
	return true
}

// indexFold returns the index of the first match of needle in s under
// ASCII case folding, or -1; needle must be lower-case and non-empty.
func indexFold(s, needle string) int {
	first := needle[0]
	for i := 0; i+len(needle) <= len(s); i++ {
		if first == '<' {
			// The closing-tag needles: jump with the vectorized search.
			j := strings.IndexByte(s[i:], '<')
			if j < 0 {
				return -1
			}
			i += j
		} else if lowerASCII(s[i]) != first {
			continue
		}
		if hasPrefixFold(s[i:], needle) {
			return i
		}
	}
	return -1
}

// attrValue extracts a (single- or double-quoted, or bare) attribute value
// from a tag's attribute text, case-insensitively; name must be
// lower-case.
func attrValue(attrs, name string) string {
	idx := 0
	for {
		p := indexFold(attrs[idx:], name)
		if p < 0 {
			return ""
		}
		p += idx
		// Must be a word boundary before and an '=' (possibly spaced) after.
		if p > 0 && isWordByte(attrs[p-1]) {
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

// hasAttr reports whether a bare boolean attribute is present: name
// (lower-case) preceded by a non-word byte or the start of attrs, and
// followed by ' ', '>' or the end of attrs.
func hasAttr(attrs, name string) bool {
	idx := 0
	for {
		p := indexFold(attrs[idx:], name)
		if p < 0 {
			return false
		}
		p += idx
		end := p + len(name)
		if (p == 0 || !isWordByte(attrs[p-1])) &&
			(end == len(attrs) || attrs[end] == ' ' || attrs[end] == '>') {
			return true
		}
		idx = end
	}
}

func isWordByte(b byte) bool {
	return b == '_' || b == '-' ||
		(b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') || (b >= '0' && b <= '9')
}

func isSpaceByte(b byte) bool {
	switch b {
	case ' ', '\t', '\n', '\r':
		return true
	}
	return false
}
