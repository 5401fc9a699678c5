package jsonkit

import (
	"encoding/json"
	"errors"
	"reflect"
	"slices"
	"strconv"
	"strings"
)

// Field is one member of a struct, P a pointer to the struct: its JSON
// key and the omitempty flag of its struct tag, and an accessor that
// returns a pointer to the field. The kernel knows the kinds *string,
// *int, *bool, *float64, *[]string and *json.RawMessage; Kind carries
// any other. A table lists the struct's fields in declaration order,
// and TestFieldTablesMatchTags holds it to the struct tags, which
// encoding/json reads. The walkers take the pointer type as their type
// parameter: Go compiles one copy of generic code per shape, and all
// pointers share one, so one walker serves every table.
type Field[P any] struct {
	Key       string
	Omitempty bool
	// Interned marks a string, or the strings of a []string, drawn from
	// a closed vocabulary, which an Owner interns instead of copying.
	Interned bool
	Ptr      func(P) any
	Kind     *Kind
	// member is `,"key":`, pre-rendered by Table; the first member
	// written drops the comma.
	member string
}

// Kind encodes and decodes the value of a field the kernel's own kinds
// do not cover: a struct (Object), a list of structs (List) or a map
// (Map). Its functions take a pointer to the field, and decode takes
// the cursor by value and returns it, so the walker's cursor never
// escapes to the heap. decode never sees null: the walker zeroes the
// field instead.
type Kind struct {
	append func(dst []byte, p any) ([]byte, bool)
	decode func(c Cursor, p any) (Cursor, bool)
	empty  func(p any) bool
	zero   func(p any)
}

// Table pre-renders each member's key and returns fields.
func Table[P any](fields []Field[P]) []Field[P] {
	for i := range fields {
		fields[i].member = `,"` + fields[i].Key + `":`
	}
	return fields
}

// Object is the kind of a struct field with table fields.
func Object[T any](fields []Field[*T]) *Kind {
	return &Kind{
		append: func(dst []byte, p any) ([]byte, bool) { return AppendObject(dst, fields, p.(*T)) },
		decode: func(c Cursor, p any) (Cursor, bool) {
			ok := decodeObject(&c, fields, p.(*T))
			return c, ok
		},
		empty: func(any) bool { return false }, // json never omits a struct
		zero:  func(p any) { *p.(*T) = *new(T) },
	}
}

// List is the kind of a []T field, T a struct with table fields. Nil
// encodes as null. Without decode, a list decodes into the field's
// existing capacity (DecodeList); decode, when set, decodes it instead:
// an owning codec decodes into scratch it keeps and copies the list out.
func List[T any](fields []Field[*T], decode func(Cursor, *[]T) (Cursor, bool)) *Kind {
	k := &Kind{
		append: func(dst []byte, p any) ([]byte, bool) { return appendList(dst, fields, *p.(*[]T)) },
		decode: func(c Cursor, p any) (Cursor, bool) {
			v := p.(*[]T)
			list, ok := DecodeList(&c, fields, (*v)[:0])
			if list == nil {
				list = []T{} // json decodes [] to an empty list, not nil
			}
			*v = list
			return c, ok
		},
		empty: func(p any) bool { return len(*p.(*[]T)) == 0 },
		zero:  func(p any) { *p.(*[]T) = nil },
	}
	if decode != nil {
		k.decode = func(c Cursor, p any) (Cursor, bool) { return decode(c, p.(*[]T)) }
	}
	return k
}

// Map is the kind of a map[string]V field: encoded with its keys
// sorted, as json does, each value by appendValue; nil encodes as null.
// decode is the codec's own, which decides where the values live.
func Map[V any](appendValue func([]byte, V) ([]byte, bool), decode func(Cursor, *map[string]V) (Cursor, bool)) *Kind {
	return &Kind{
		append: func(dst []byte, p any) ([]byte, bool) { return appendMap(dst, *p.(*map[string]V), appendValue) },
		decode: func(c Cursor, p any) (Cursor, bool) { return decode(c, p.(*map[string]V)) },
		empty:  func(p any) bool { return len(*p.(*map[string]V)) == 0 },
		zero:   func(p any) { *p.(*map[string]V) = nil },
	}
}

// Decode decodes the JSON object s into r and reports whether it could:
// false declines, and the codec decodes s with encoding/json instead,
// after which r's partial state does not matter. On success *r holds
// what json.Unmarshal gives into a fresh value. own is the decode's Owner:
// with none, r may hold an earlier decode, whose slices' capacity the
// decode reuses; with one, r must be fresh (its zero value).
func Decode[P any](s string, own Owner, fields []Field[P], r P) bool {
	c := Cursor{s: s, own: own}
	c.ws()
	if !decodeObject(&c, fields, r) {
		return false
	}
	c.ws()
	return c.i == len(c.s)
}

// decodeObject decodes one object into r, dispatching each member on
// the table. A key the table lacks declines, and so does a key seen
// twice: a member's bit in the duplicate mask is its index. A member
// the text leaves out is zeroed, as json leaves it in a fresh value;
// with an owner, r is fresh already.
func decodeObject[P any](c *Cursor, fields []Field[P], r P) bool {
	more, ok := c.Begin('{')
	var seen uint64
	next := 0
	for more {
		i := next
		if i < len(fields) && c.expectKey(fields[i].Key) {
			c.ws()
		} else {
			key, ok := c.Key()
			if !ok {
				return false
			}
			if i = lookupField(fields, key, next); i < 0 {
				return false
			}
		}
		if seen&(1<<i) != 0 {
			return false
		}
		seen |= 1 << i
		next = i + 1
		f := &fields[i]
		if !c.value(f.Kind, f.Interned, f.Ptr(r)) {
			return false
		}
		more, ok = c.Next('}')
	}
	if !ok {
		return false
	}
	if c.own == nil && seen != 1<<len(fields)-1 {
		for i := range fields {
			if seen&(1<<i) == 0 {
				zero(fields[i].Kind, fields[i].Ptr(r))
			}
		}
	}
	return true
}

// expectKey consumes `"key":` when the cursor sits on it: a key in the
// order the encoder writes costs one comparison of the key's bytes
// instead of a string scan. Table keys hold no byte JSON escapes, so a
// match is that key.
func (c *Cursor) expectKey(key string) bool {
	end := c.i + len(key) + 3
	// A key of another length rarely ends in `":` where this one does:
	// two byte loads turn most misses away before the comparison.
	if end > len(c.s) || c.s[end-1] != ':' || c.s[end-2] != '"' || c.s[c.i] != '"' || c.s[c.i+1:end-2] != key {
		return false
	}
	c.i = end
	return true
}

// lookupField returns the index of the member named key, or -1. The
// search starts at hint, the index after the previous member's: text in
// the encoder's order finds each key on the first comparison.
func lookupField[P any](fields []Field[P], key string, hint int) int {
	for j := range fields {
		i := hint + j
		if i >= len(fields) {
			i -= len(fields)
		}
		if fields[i].Key == key {
			return i
		}
	}
	return -1
}

// value decodes a member's value into the field p points to.
func (c *Cursor) value(k *Kind, interned bool, p any) (ok bool) {
	if k != nil {
		if c.Null() {
			k.zero(p)
			return true
		}
		*c, ok = k.decode(*c, p)
		return ok
	}
	switch v := p.(type) {
	case *string:
		*v, ok = c.string(interned)
	case *int:
		*v, ok = c.Int()
	case *bool:
		*v, ok = c.bool()
	case *float64:
		*v, ok = c.Float()
	case *[]string:
		ok = c.strings(v, interned)
	case *json.RawMessage:
		// RawMessage keeps the span verbatim, a literal null included;
		// skipValue validated it, so nothing json rejects is kept.
		start := c.i
		if ok = c.skipValue(0); ok {
			*v = append((*v)[:0], c.s[start:c.i]...)
		}
	}
	return ok
}

// strings decodes a []string: in place without an owner, copied out at
// its final length into the owner's storage with one.
func (c *Cursor) strings(v *[]string, interned bool) bool {
	if c.Null() {
		*v = nil
		return true
	}
	if c.own == nil {
		list, ok := c.appendStrings((*v)[:0], interned)
		if list == nil {
			list = []string{} // json decodes [] to an empty list, not nil
		}
		*v = list
		return ok
	}
	// Room for the strings of every list the simulation writes, so an
	// owned list is collected without growing.
	var buf [32]string
	list, ok := c.appendStrings(buf[:0], interned)
	*v = c.own.Strings(len(list))
	copy(*v, list)
	return ok
}

// appendStrings decodes an array of strings onto list.
func (c *Cursor) appendStrings(list []string, interned bool) ([]string, bool) {
	more, ok := c.Begin('[')
	for more {
		s, sok := c.string(interned)
		if !sok {
			return list, false
		}
		list = append(list, s)
		more, ok = c.Next(']')
	}
	return list, ok
}

// DecodeList decodes an array of T objects, appending its elements to
// buf. Without an owner, an element that fits buf's capacity is decoded
// in place, so the slices it holds keep their capacity too; with one,
// every element is decoded fresh. A null element is T's zero value, as
// in json.
func DecodeList[T any](c *Cursor, fields []Field[*T], buf []T) ([]T, bool) {
	more, ok := c.Begin('[')
	for more {
		if len(buf) < cap(buf) {
			buf = buf[:len(buf)+1]
		} else {
			buf = append(buf, *new(T))
		}
		e := &buf[len(buf)-1]
		null := c.Null()
		if null || c.own != nil {
			*e = *new(T)
		}
		if !null && !decodeObject(c, fields, e) {
			return buf, false
		}
		more, ok = c.Next(']')
	}
	return buf, ok
}

// zero sets the field p points to to its zero value.
func zero(k *Kind, p any) {
	if k != nil {
		k.zero(p)
		return
	}
	switch v := p.(type) {
	case *string:
		*v = ""
	case *int:
		*v = 0
	case *bool:
		*v = false
	case *float64:
		*v = 0
	case *[]string:
		*v = nil
	case *json.RawMessage:
		*v = nil
	}
}

// AppendObject appends r's JSON encoding, json.Marshal's bytes, to dst:
// its members in table order, leaving out the empty ones a field's
// omitempty flag drops. ok=false leaves r to the codec's encoding/json
// fallback: a NaN or infinite float, or a json.RawMessage json would
// rewrite or reject.
func AppendObject[P any](dst []byte, fields []Field[P], r P) ([]byte, bool) {
	dst = append(dst, '{')
	first := 1 // the first member written drops member's comma
	for i := range fields {
		f := &fields[i]
		var wrote, ok bool
		if dst, wrote, ok = appendMember(dst, f.member[first:], f.Omitempty, f.Kind, f.Ptr(r)); !ok {
			return dst, false
		}
		if wrote {
			first = 0
		}
	}
	return append(dst, '}'), true
}

// appendMember appends member, `"key":`, and the value of the field p
// points to, unless omitempty drops the value as encoding/json's
// omitempty test does (wrote=false): the empty string, 0, false, and a
// list or map of length 0, never a struct.
func appendMember(dst []byte, member string, omitempty bool, k *Kind, p any) (out []byte, wrote, ok bool) {
	if k != nil {
		if omitempty && k.empty(p) {
			return dst, false, true
		}
		dst, ok = k.append(append(dst, member...), p)
		return dst, true, ok
	}
	switch v := p.(type) {
	case *string:
		if omitempty && *v == "" {
			return dst, false, true
		}
		return appendString(append(dst, member...), *v), true, true
	case *int:
		if omitempty && *v == 0 {
			return dst, false, true
		}
		return strconv.AppendInt(append(dst, member...), int64(*v), 10), true, true
	case *bool:
		if omitempty && !*v {
			return dst, false, true
		}
		return strconv.AppendBool(append(dst, member...), *v), true, true
	case *float64:
		if omitempty && *v == 0 {
			return dst, false, true
		}
		dst, ok = AppendFloat(append(dst, member...), *v)
		return dst, true, ok
	case *[]string:
		if omitempty && len(*v) == 0 {
			return dst, false, true
		}
		dst = append(dst, member...)
		if *v == nil {
			return append(dst, "null"...), true, true
		}
		dst = append(dst, '[')
		for i, s := range *v {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, s)
		}
		return append(dst, ']'), true, true
	case *json.RawMessage:
		if omitempty && len(*v) == 0 {
			return dst, false, true
		}
		dst, ok = appendRaw(append(dst, member...), *v)
		return dst, true, ok
	}
	return dst, false, false // not a kind the kernel knows: TestFieldTablesMatchTags rules this out
}

// appendList appends a list of T objects, null when nil.
func appendList[T any](dst []byte, fields []Field[*T], list []T) ([]byte, bool) {
	if list == nil {
		return append(dst, "null"...), true
	}
	dst = append(dst, '[')
	for i := range list {
		if i > 0 {
			dst = append(dst, ',')
		}
		var ok bool
		if dst, ok = AppendObject(dst, fields, &list[i]); !ok {
			return dst, false
		}
	}
	return append(dst, ']'), true
}

// appendMap appends a map with its keys in the order json writes them,
// null when nil.
func appendMap[V any](dst []byte, m map[string]V, appendValue func([]byte, V) ([]byte, bool)) ([]byte, bool) {
	if m == nil {
		return append(dst, "null"...), true
	}
	// Room for the keys of every map the simulation writes (one per
	// partner of a site), so sorting them allocates nothing.
	var buf [32]string
	keys := buf[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, k)
		dst = append(dst, ':')
		var ok bool
		if dst, ok = appendValue(dst, m[k]); !ok {
			return dst, false
		}
	}
	return append(dst, '}'), true
}

// CheckTable holds a table to the struct tags: one entry per field, in
// declaration order, with the tag's name and omitempty flag, an
// accessor that points at that very field, and a kind the walker can
// encode and decode. A key must also need no JSON escaping, since the
// encoder copies it verbatim.
//
//hbvet:allow deadexport check tests compare against: TestFieldTablesMatchTags of rtb and dataset hold their tables to the struct tags with it
func CheckTable[P any](fields []Field[P]) error {
	pt := reflect.TypeFor[P]()
	if pt.Kind() != reflect.Pointer || pt.Elem().Kind() != reflect.Struct {
		return errors.New(pt.String() + " is not a pointer to a struct")
	}
	rv := reflect.New(pt.Elem())
	r, v, typ := rv.Interface().(P), rv.Elem(), pt.Elem()
	if len(fields) != typ.NumField() {
		return errors.New(typ.Name() + ": " + strconv.Itoa(len(fields)) + " table entries for " + strconv.Itoa(typ.NumField()) + " fields")
	}
	for i := range fields {
		f, sf := &fields[i], typ.Field(i)
		entry := typ.Name() + "." + sf.Name + ": table entry " + strconv.Itoa(i) + " (" + strconv.Quote(f.Key) + ")"
		name, opts, _ := strings.Cut(sf.Tag.Get("json"), ",")
		omit := false
		for _, o := range strings.Split(opts, ",") {
			omit = omit || o == "omitempty"
		}
		if f.Key != name || f.Omitempty != omit {
			return errors.New(entry + " has omitempty=" + strconv.FormatBool(f.Omitempty) +
				", the tag says " + strconv.Quote(name) + " omitempty=" + strconv.FormatBool(omit))
		}
		if f.member != `,"`+f.Key+`":` {
			return errors.New(entry + " is not in a table built by Table")
		}
		p := reflect.ValueOf(f.Ptr(r))
		if p.Kind() != reflect.Pointer || p.Type().Elem() != sf.Type || p.Pointer() != v.Field(i).Addr().Pointer() {
			return errors.New(entry + " points at a " + p.Type().String() + ", not at the field")
		}
		if _, _, ok := appendMember(nil, "", false, f.Kind, f.Ptr(r)); !ok {
			return errors.New(entry + " is a " + sf.Type.String() + ", which the kernel cannot encode without a Kind")
		}
		if string(appendString(nil, f.Key)) != `"`+f.Key+`"` {
			return errors.New(entry + " needs escaping")
		}
	}
	return nil
}
