package jsonkit

import (
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
	"unsafe"
)

// hexDigits matches encoding/json's lowercase hex table.
const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string, replicating encoding/json's
// appendString with escapeHTML=true (json.Marshal's and json.Encoder's
// default): printable ASCII except `"`, `\`, `<`, `>`, `&` passes
// through, control characters get short escapes or \u00xx, invalid
// UTF-8 becomes �, and U+2028/U+2029 are escaped for JSONP safety.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == 0x2028 || r == 0x2029 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendFloat appends f the way encoding/json's floatEncoder does:
// shortest representation, 'f' format except for very small or large
// magnitudes, which use 'e' with the exponent's leading zero stripped.
// NaN and infinities are not representable: ok=false leaves the value
// to the codec's encoding/json fallback, whose error is the one to
// return.
func AppendFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	if n, ok := micros(f); ok {
		return appendMicros(dst, n), true
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// clean up e-09 to e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}

// micros returns the n with f == n/1e6 exactly, for a finite f with
// |f| >= 1e-6 and |n| < 1e15: the prices and millisecond latencies the
// simulation writes. The division is correctly rounded, so the decimal
// n·10⁻⁶ parses back to f; it has at most 15 significant digits, and
// two such decimals never parse to the same float64, so no shorter
// decimal does. It is therefore the shortest round-trip form strconv
// would find, in the 'f' format encoding/json uses for this range.
func micros(f float64) (int64, bool) {
	if math.Abs(f) < 1e-6 {
		return 0, false
	}
	n := math.Round(f * 1e6)
	if math.Abs(n) >= 1e15 || n/1e6 != f {
		return 0, false
	}
	return int64(n), true
}

// appendMicros appends n·10⁻⁶ in decimal: the integer part, then the six
// implied decimals without their trailing zeros.
func appendMicros(dst []byte, n int64) []byte {
	if n < 0 {
		dst = append(dst, '-')
		n = -n
	}
	dst = strconv.AppendInt(dst, n/1e6, 10)
	frac := n % 1e6
	if frac == 0 {
		return dst
	}
	var b [7]byte
	b[0] = '.'
	for i := 6; i > 0; i-- {
		b[i] = byte('0' + frac%10)
		frac /= 10
	}
	end := len(b)
	for b[end-1] == '0' {
		end--
	}
	return append(dst, b[:end]...)
}

// appendRaw appends a json.RawMessage as json.Marshal writes it, nil
// as null. json compacts the fragment (stripping whitespace between
// tokens) and HTML-escapes `<`, `>`, `&` and U+2028/U+2029 wherever they
// appear, so any byte that could trigger either rewrite leaves the
// fragment to the fallback (ok=false), and so does a fragment the
// decoder's validator does not accept, which includes every one on
// which json.Marshal fails. 0xE2 is the lead byte of the U+2028/U+2029
// encodings; it also sends some legitimate multi-byte runes to the
// fallback, which is only a perf loss, never a correctness one.
func appendRaw(dst []byte, raw json.RawMessage) ([]byte, bool) {
	if raw == nil {
		return append(dst, "null"...), true
	}
	for _, b := range raw {
		switch b {
		case ' ', '\t', '\n', '\r', '<', '>', '&', 0xE2:
			return dst, false
		}
	}
	c := Cursor{s: unsafe.String(unsafe.SliceData(raw), len(raw))}
	if !c.skipValue(0) || c.i != len(c.s) {
		return dst, false
	}
	return append(dst, raw...), true
}
