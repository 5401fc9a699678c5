// Package jsonkit is the JSON kernel under the repo's two hand-rolled
// codecs: the OpenRTB bodies of internal/rtb and the JSONL records of
// internal/dataset (DESIGN.md §5.2, §5.4). Both formats are pinned to
// encoding/json, which stays each codec's fallback and its reference:
// the encoder writes json.Marshal's bytes, and the decoder either gives
// what json.Unmarshal gives into a fresh value or declines, and the
// codec hands the text to encoding/json.
//
// A codec describes each struct once, as a table of fields (table.go),
// and the kernel encodes and decodes it by walking the table over one
// cursor. The decoder declines
//
//   - an unknown or case-mismatched key (json folds case);
//   - a duplicate key, map keys included (json overwrites or merges);
//   - any string escape, control byte or invalid UTF-8 (json unescapes
//     or rewrites to U+FFFD);
//   - a number json would reject for its field: a fraction or exponent
//     in an int, overflow, an out-of-range float;
//   - anything after the value but whitespace.
//
// null leaves the field at its zero value, as json does on a fresh
// value (a json.RawMessage keeps the four bytes, as json does).
package jsonkit

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// Cursor is a position in the JSON text being decoded. A table's walker
// hands it by value to the decode of a Kind and takes it back with the
// result, so a cursor on the stack stays there.
type Cursor struct {
	s   string
	i   int
	own Owner
}

// Owner takes over the strings a decode keeps. Without one, a decoded
// string is a substring of the text and a list is decoded into the
// destination's existing capacity. With one, the text may be reused
// after the decode: strings are the owner's copies, a []string is
// copied out at its final length into storage the owner gives, and
// every value is decoded fresh (an owning codec decodes its lists of
// structs itself, List's decode).
type Owner interface {
	// Own returns s, which aliases the text, as a string the decoded
	// value may keep. interned marks a string from a closed vocabulary.
	Own(s string, interned bool) string
	// Strings returns storage the decoded value may keep for a []string
	// of n strings Own returned: a full slice, not nil even for n == 0,
	// as json decodes [].
	Strings(n int) []string
}

// Owner returns the decode's owner, nil if it has none.
func (c *Cursor) Owner() Owner { return c.own }

func (c *Cursor) ws() {
	if c.i < len(c.s) && c.s[c.i] > ' ' {
		return // no whitespace, the common case
	}
	for c.i < len(c.s) {
		switch c.s[c.i] {
		case ' ', '\t', '\n', '\r':
			c.i++
		default:
			return
		}
	}
}

func (c *Cursor) eat(b byte) bool {
	if c.i < len(c.s) && c.s[c.i] == b {
		c.i++
		return true
	}
	return false
}

func (c *Cursor) lit(kw string) bool {
	if len(c.s)-c.i >= len(kw) && c.s[c.i:c.i+len(kw)] == kw {
		c.i += len(kw)
		return true
	}
	return false
}

// Null consumes a null and reports whether there was one.
func (c *Cursor) Null() bool {
	return c.i < len(c.s) && c.s[c.i] == 'n' && c.lit("null")
}

// Begin consumes the byte that opens an object or an array, '{' or '[',
// and reports whether a member or element follows: more is false with
// ok for an empty one, whose closing byte is consumed too.
func (c *Cursor) Begin(open byte) (more, ok bool) {
	if !c.eat(open) {
		return false, false
	}
	c.ws()
	// '}' and ']' follow '{' and '[' two bytes later in ASCII.
	if c.eat(open + 2) {
		return false, true
	}
	return true, true
}

// Next consumes the separator after a member or element: more is true
// after a comma (the cursor then sits on the next token), false with ok
// after the closing byte.
func (c *Cursor) Next(closing byte) (more, ok bool) {
	c.ws()
	if c.i < len(c.s) {
		switch c.s[c.i] {
		case ',':
			c.i++
			c.ws()
			return true, true
		case closing:
			c.i++
			return false, true
		}
	}
	return false, false
}

// Key reads a member's name and its colon, leaving the cursor on the
// value. The name is a substring of the text.
func (c *Cursor) Key() (string, bool) {
	k, ok := c.str()
	if !ok {
		return "", false
	}
	c.ws()
	if !c.eat(':') {
		return "", false
	}
	c.ws()
	return k, true
}

// str scans a string with no escapes, no control bytes and valid UTF-8,
// the strings json hands back byte for byte, and returns it as a
// substring of the text.
func (c *Cursor) str() (string, bool) {
	if !c.eat('"') {
		return "", false
	}
	s, start := c.s, c.i
	for i := start; i < len(s); {
		// Plain bytes, the common case, cost one table load each.
		for i < len(s) && plainStrByte[s[i]] {
			i++
		}
		if i == len(s) {
			break
		}
		switch b := s[i]; {
		case b == '"':
			c.i = i + 1
			return s[start:i], true
		case b < utf8.RuneSelf: // a backslash or a control byte
			return "", false
		default:
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 {
				return "", false
			}
			i += size
		}
	}
	return "", false
}

// plainStrByte marks the ASCII bytes a JSON string carries unescaped
// and unchanged: everything but controls, '"' and '\\'.
var plainStrByte = func() (t [256]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\'
	}
	return t
}()

// string reads a string value, null as "", owned by the decode's owner
// when it has one.
func (c *Cursor) string(interned bool) (string, bool) {
	if c.Null() {
		return "", true
	}
	s, ok := c.str()
	if ok && c.own != nil {
		s = c.own.Own(s, interned)
	}
	return s, ok
}

func (c *Cursor) bool() (v, ok bool) {
	if c.lit("true") {
		return true, true
	}
	if c.lit("false") {
		return false, true
	}
	return false, c.Null()
}

// number scans one number per the strict JSON grammar. Looser forms
// (leading zeros, a bare dot, a plus sign) decline, and the fallback
// rejects them as json does. frac reports a fraction or an exponent.
func (c *Cursor) number() (tok string, frac, ok bool) {
	start := c.i
	c.eat('-')
	switch {
	case c.eat('0'):
	case c.digit():
		c.digits()
	default:
		return "", false, false
	}
	if c.eat('.') {
		if !c.digit() {
			return "", false, false
		}
		c.digits()
		frac = true
	}
	if c.eat('e') || c.eat('E') {
		if !c.eat('+') {
			c.eat('-')
		}
		if !c.digit() {
			return "", false, false
		}
		c.digits()
		frac = true
	}
	return c.s[start:c.i], frac, true
}

func (c *Cursor) digit() bool {
	return c.i < len(c.s) && c.s[c.i] >= '0' && c.s[c.i] <= '9'
}

func (c *Cursor) digits() {
	for c.digit() {
		c.i++
	}
}

// Int reads an int value, null as 0. json parses ints with
// strconv.ParseInt, so a fraction or an exponent (1.0, 1e2) is a decode
// error there, and so is overflow: both decline.
func (c *Cursor) Int() (int, bool) {
	if c.Null() {
		return 0, true
	}
	tok, frac, ok := c.number()
	if !ok || frac {
		return 0, false
	}
	neg := tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	if len(tok) > 19 { // 19 digits always fit a uint64
		return 0, false
	}
	var u uint64
	for i := 0; i < len(tok); i++ {
		u = u*10 + uint64(tok[i]-'0')
	}
	var v int64
	switch {
	case neg && u <= 1<<63:
		v = int64(-u)
	case !neg && u <= math.MaxInt64:
		v = int64(u)
	default:
		return 0, false
	}
	if int64(int(v)) != v {
		return 0, false
	}
	return int(v), true
}

// Float reads a float64 value, null as 0, exactly as json does
// (ParseFloat on the token); an out-of-range value is an error there
// and declines here.
func (c *Cursor) Float() (float64, bool) {
	if c.Null() {
		return 0, true
	}
	tok, _, ok := c.number()
	if !ok {
		return 0, false
	}
	if f, ok := shortDecimal(tok); ok {
		return f, true
	}
	f, err := strconv.ParseFloat(tok, 64)
	return f, err == nil
}

// shortDecimal parses a number token without an exponent and with at
// most 15 digits, the form the encoders give prices and latencies, as
// ParseFloat would: its digits m < 10¹⁵ < 2⁵³ and the power of ten 10ᵏ
// it is divided by are exact float64s, so m/10ᵏ is one correctly
// rounded division, which is ParseFloat's correctly rounded result.
func shortDecimal(tok string) (float64, bool) {
	neg := tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	var m uint64
	digits, scale := 0, -1
	for i := 0; i < len(tok); i++ {
		switch b := tok[i]; {
		case b >= '0' && b <= '9':
			m = m*10 + uint64(b-'0')
			digits++
		case b == '.':
			scale = len(tok) - i - 1
		default:
			return 0, false // an exponent
		}
	}
	if digits > 15 {
		return 0, false
	}
	f := float64(m)
	if scale > 0 {
		f /= pow10[scale]
	}
	if neg {
		f = -f
	}
	return f, true
}

var pow10 = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// skipString skips one string token, validating escape sequences the
// way encoding/json's scanner does (named escapes and \uXXXX only, no
// raw control bytes). Unlike str it accepts escapes: a skipped value is
// kept verbatim, so nothing is unescaped.
func (c *Cursor) skipString() bool {
	if !c.eat('"') {
		return false
	}
	for c.i < len(c.s) {
		b := c.s[c.i]
		switch {
		case b == '"':
			c.i++
			return true
		case b == '\\':
			c.i++
			if c.i >= len(c.s) {
				return false
			}
			switch c.s[c.i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				c.i++
			case 'u':
				c.i++
				if len(c.s)-c.i < 4 {
					return false
				}
				for k := 0; k < 4; k++ {
					if !isHexDigit(c.s[c.i]) {
						return false
					}
					c.i++
				}
			default:
				return false
			}
		case b < 0x20:
			return false
		default:
			c.i++
		}
	}
	return false
}

func isHexDigit(b byte) bool {
	return b >= '0' && b <= '9' || b >= 'a' && b <= 'f' || b >= 'A' && b <= 'F'
}

// maxSkipDepth bounds skipValue's recursion, so adversarial nesting
// lands in the fallback instead of the goroutine stack; the stdlib's
// own limit is far higher, so over-deep but valid input is a perf loss,
// never a behavior change.
const maxSkipDepth = 64

// skipValue validates and skips one JSON value, enforcing exactly what
// encoding/json's scanner accepts: a json.RawMessage keeps its bytes
// verbatim, but the scan still validates them.
func (c *Cursor) skipValue(depth int) bool {
	if depth > maxSkipDepth || c.i >= len(c.s) {
		return false
	}
	switch c.s[c.i] {
	case '"':
		return c.skipString()
	case '{':
		more, ok := c.Begin('{')
		for more {
			if !c.skipString() {
				return false
			}
			c.ws()
			if !c.eat(':') {
				return false
			}
			c.ws()
			if !c.skipValue(depth + 1) {
				return false
			}
			more, ok = c.Next('}')
		}
		return ok
	case '[':
		more, ok := c.Begin('[')
		for more {
			if !c.skipValue(depth + 1) {
				return false
			}
			more, ok = c.Next(']')
		}
		return ok
	case 't':
		return c.lit("true")
	case 'f':
		return c.lit("false")
	case 'n':
		return c.Null()
	default:
		_, _, ok := c.number()
		return ok
	}
}
