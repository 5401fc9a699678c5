package dataset

import (
	"encoding/json"
	"reflect"
	"slices"
	"strconv"

	"headerbid/internal/rtb"
)

// encoder writes a record as the line json.Encoder writes for it (HTML
// escaping on, map keys sorted, floats in encoding/json's form) without
// reflection: it walks the field tables of schema.go. Its buffers are
// reused record after record.
type encoder struct {
	buf  []byte
	keys []string // a map's keys, being sorted
	err  error    // the first value JSON cannot represent
}

// record replaces e.buf with rec's line, newline included. On error
// (a NaN or infinite float, which encoding/json rejects too) e.buf holds
// no usable line.
func (e *encoder) record(rec *SiteRecord) error {
	e.buf, e.err = e.buf[:0], nil
	appendObject(e, siteFields, rec)
	e.buf = append(e.buf, '\n')
	return e.err
}

// appendObject writes r's members in table order, leaving out the empty
// ones a field's omitempty flag drops.
func appendObject[R any](e *encoder, fields []field[R], r *R) {
	e.buf = append(e.buf, '{')
	sep := false
	for i := range fields {
		f := &fields[i]
		p := f.ptr(r)
		if f.omitempty && isEmpty(p) {
			continue
		}
		if sep {
			e.buf = append(e.buf, ',')
		}
		sep = true
		e.buf = append(e.buf, '"')
		e.buf = append(e.buf, f.key...) // plain ASCII: no escape needed
		e.buf = append(e.buf, '"', ':')
		e.value(p)
	}
	e.buf = append(e.buf, '}')
}

// isEmpty is encoding/json's omitempty test for the field p points to.
// A struct is never empty.
func isEmpty(p any) bool {
	switch v := p.(type) {
	case *string:
		return *v == ""
	case *int:
		return *v == 0
	case *bool:
		return !*v
	case *float64:
		return *v == 0
	case *[]string:
		return len(*v) == 0
	case *[]AuctionRecord:
		return len(*v) == 0
	case *[]BidRecord:
		return len(*v) == 0
	case *map[string][]float64:
		return len(*v) == 0
	case *map[string]int:
		return len(*v) == 0
	}
	return false
}

// value writes the field p points to.
func (e *encoder) value(p any) {
	switch v := p.(type) {
	case *string:
		e.buf = rtb.AppendJSONString(e.buf, *v)
	case *int:
		e.buf = strconv.AppendInt(e.buf, int64(*v), 10)
	case *bool:
		e.buf = strconv.AppendBool(e.buf, *v)
	case *float64:
		e.float(*v)
	case *[]string:
		if *v == nil {
			e.buf = append(e.buf, "null"...)
			return
		}
		e.buf = append(e.buf, '[')
		for i, s := range *v {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.buf = rtb.AppendJSONString(e.buf, s)
		}
		e.buf = append(e.buf, ']')
	case *[]AuctionRecord:
		appendList(e, auctionFields, *v)
	case *[]BidRecord:
		appendList(e, bidFields, *v)
	case *map[string][]float64:
		if *v == nil {
			e.buf = append(e.buf, "null"...)
			return
		}
		e.buf = append(e.buf, '{')
		for i, k := range sortedKeys(e, *v) {
			e.mapKey(i, k)
			e.floats((*v)[k])
		}
		e.buf = append(e.buf, '}')
	case *map[string]int:
		if *v == nil {
			e.buf = append(e.buf, "null"...)
			return
		}
		e.buf = append(e.buf, '{')
		for i, k := range sortedKeys(e, *v) {
			e.mapKey(i, k)
			e.buf = strconv.AppendInt(e.buf, int64((*v)[k]), 10)
		}
		e.buf = append(e.buf, '}')
	case *TrafficRecord:
		appendObject(e, trafficFields, v)
	default:
		panic("dataset: field table entry of an unknown kind") // TestFieldTablesMatchTags rules this out
	}
}

// appendList writes a list of records, null when nil.
func appendList[R any](e *encoder, fields []field[R], list []R) {
	if list == nil {
		e.buf = append(e.buf, "null"...)
		return
	}
	e.buf = append(e.buf, '[')
	for i := range list {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		appendObject(e, fields, &list[i])
	}
	e.buf = append(e.buf, ']')
}

// sortedKeys returns m's keys in the order encoding/json writes them,
// in e's reused scratch.
func sortedKeys[V any](e *encoder, m map[string]V) []string {
	e.keys = e.keys[:0]
	for k := range m {
		e.keys = append(e.keys, k)
	}
	slices.Sort(e.keys)
	return e.keys
}

// mapKey writes the i-th key of a map, preceded by a comma after the
// first.
func (e *encoder) mapKey(i int, k string) {
	if i > 0 {
		e.buf = append(e.buf, ',')
	}
	e.buf = rtb.AppendJSONString(e.buf, k)
	e.buf = append(e.buf, ':')
}

// floats writes a float list, null when nil.
func (e *encoder) floats(v []float64) {
	if v == nil {
		e.buf = append(e.buf, "null"...)
		return
	}
	e.buf = append(e.buf, '[')
	for i, f := range v {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.float(f)
	}
	e.buf = append(e.buf, ']')
}

// float writes f as encoding/json does; NaN and ±Inf record the error
// json.Encoder returns for them.
func (e *encoder) float(f float64) {
	b, ok := rtb.AppendJSONFloat(e.buf, f)
	if !ok {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	e.buf = b
}
