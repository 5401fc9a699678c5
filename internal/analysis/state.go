package analysis

import (
	"cmp"
	"fmt"
	"maps"
	"reflect"
	"slices"

	"headerbid/internal/hb"
	"headerbid/internal/stats"
	"headerbid/internal/wire"
)

// A Codec is a Metric whose in-progress accumulator state round-trips
// through the snapshot wire format (internal/snapshot). The contract,
// enforced by the snapshot determinism suite for every registered
// metric:
//
//   - EncodeState writes the complete accumulator state — configuration
//     parameters included — as a pure function of that state: map
//     iteration never reaches the bytes (keys are written sorted), so
//     equal states encode to equal bytes and
//     encode(decode(encode(m))) == encode(m) holds byte for byte.
//   - DecodeState replaces the receiver's state with the serialized
//     one. The decoded metric is a full Metric: Add, Merge (in either
//     role) and Snapshot behave exactly as on the original, which is
//     what makes shard files foldable in any order or grouping.
//
// Dependencies that are not state — the partner registry handed to the
// popularity metrics — are not serialized; the snapshot registry's
// constructors supply them.
type Codec interface {
	Metric
	EncodeState(w *wire.Writer)
	DecodeState(r *wire.Reader) error
}

// An accumulator is one piece of a metric's state: a typed view over
// one of the metric's own fields that merges the same piece of another
// shard in and writes and reads itself. The kinds below are all the
// metrics need. Two byte rules keep every encoding a pure function of
// the state: a map is written in sorted key order, and a decoded empty
// slice is nil.
type accumulator interface {
	// merge folds o, the same list entry of a metric of the same kind,
	// in. o is consumed: the receiver may take over its storage.
	merge(o accumulator)
	encode(w *wire.Writer)
	decode(r *wire.Reader) error
}

// state is embedded by every metric in this package. It holds the
// metric's state as one list of accumulators, set once by the
// constructor, and runs Merge, EncodeState and DecodeState over it: a
// field is merged and encoded exactly when it is listed, and the list
// order is the byte layout of the metric's snapshot section. The
// entries point into the metric, so a metric is never copied by value.
type state struct {
	self Metric
	acc  []accumulator
}

// stateful is a metric that embeds state.
type stateful interface {
	Metric
	list() *state
}

func (s *state) list() *state { return s }

// hold sets the state list of m, whose entries point into m, and
// returns m.
func hold[M stateful](m M, acc ...accumulator) M {
	*m.list() = state{self: m, acc: acc}
	return m
}

// Merge folds a shard in, accumulator by accumulator. It panics if
// other is a different kind of metric.
func (s *state) Merge(other Metric) {
	o, ok := other.(stateful)
	if !ok || reflect.TypeOf(other) != reflect.TypeOf(s.self) {
		panic(fmt.Sprintf("analysis: cannot merge %T into %T", other, s.self))
	}
	for i, a := range s.acc {
		a.merge(o.list().acc[i])
	}
}

// EncodeState implements Codec.
func (s *state) EncodeState(w *wire.Writer) {
	for _, a := range s.acc {
		a.encode(w)
	}
}

// DecodeState implements Codec.
func (s *state) DecodeState(r *wire.Reader) error {
	for _, a := range s.acc {
		if err := a.decode(r); err != nil {
			return err
		}
	}
	return nil
}

// sum is an int counter: merging adds.
type sum int

func (a *sum) merge(o accumulator)         { *a += *o.(*sum) }
func (a *sum) encode(w *wire.Writer)       { w.Int(int(*a)) }
func (a *sum) decode(r *wire.Reader) error { return read(r, (*int)(a)) }

// fsum is a float64 sum: merging adds.
type fsum float64

func (a *fsum) merge(o accumulator)         { *a += *o.(*fsum) }
func (a *fsum) encode(w *wire.Writer)       { w.Float64(float64(*a)) }
func (a *fsum) decode(r *wire.Reader) error { return read(r, (*float64)(a)) }

// peak is a running int max: merging keeps the larger.
type peak int

func (a *peak) merge(o accumulator)         { *a = max(*a, *o.(*peak)) }
func (a *peak) encode(w *wire.Writer)       { w.Int(int(*a)) }
func (a *peak) decode(r *wire.Reader) error { return read(r, (*int)(a)) }

// param is an int configuration parameter (a top-k cutoff, a clamp, a
// sample floor): it is encoded, and a merge keeps the receiver's.
type param int

func (a *param) merge(accumulator)           {}
func (a *param) encode(w *wire.Writer)       { w.Int(int(*a)) }
func (a *param) decode(r *wire.Reader) error { return read(r, (*int)(a)) }

// fparam is a float64 configuration parameter.
type fparam float64

func (a *fparam) merge(accumulator)           {}
func (a *fparam) encode(w *wire.Writer)       { w.Float64(float64(*a)) }
func (a *fparam) decode(r *wire.Reader) error { return read(r, (*float64)(a)) }

// samples is a sample slice: merging appends. The summaries built from
// samples (ECDF, Box) sort them, so append order never reaches a result.
type samples []float64

func (a *samples) merge(o accumulator)         { *a = append(*a, *o.(*samples)...) }
func (a *samples) encode(w *wire.Writer)       { w.Float64s(*a) }
func (a *samples) decode(r *wire.Reader) error { return read(r, (*[]float64)(a)) }

// strset is a string set, written as its sorted members: merging
// unites.
type strset map[string]bool

func (a *strset) merge(o accumulator) {
	for k := range *o.(*strset) {
		(*a)[k] = true
	}
}

func (a *strset) encode(w *wire.Writer) { w.Strings(slices.Sorted(maps.Keys(*a))) }

func (a *strset) decode(r *wire.Reader) error {
	ks := r.Strings()
	*a = make(strset, len(ks))
	for _, k := range ks {
		(*a)[k] = true
	}
	return r.Err()
}

// key is the key type of a keyed accumulator.
type key interface {
	string | int | hb.Facet | hb.Size
}

// value is the value type of a keyed accumulator.
type value interface{ int | float64 | []float64 }

// tally is a keyed sum: merging adds key by key. A nil tally stays nil
// until a merge brings it a key, so a lazily built map stays lazy.
type tally[K key, V int | float64] map[K]V

func (a *tally[K, V]) merge(o accumulator) {
	for k, v := range *o.(*tally[K, V]) {
		if *a == nil {
			*a = make(tally[K, V])
		}
		(*a)[k] += v
	}
}

func (a *tally[K, V]) encode(w *wire.Writer)       { encodeMap(w, *a) }
func (a *tally[K, V]) decode(r *wire.Reader) error { return decodeMap(r, (*map[K]V)(a)) }

// keyed is keyed samples: merging appends key by key. A key the
// receiver lacks takes over the shard's slice instead of copying it
// (merge arguments are consumed, so the aliasing is invisible): the
// first shard folded into an empty root moves its samples without a
// copy.
type keyed[K key] map[K][]float64

func (a *keyed[K]) merge(o accumulator) {
	for k, xs := range *o.(*keyed[K]) {
		if cur, ok := (*a)[k]; ok {
			(*a)[k] = append(cur, xs...)
		} else {
			(*a)[k] = xs
		}
	}
}

func (a *keyed[K]) encode(w *wire.Writer)       { encodeMap(w, *a) }
func (a *keyed[K]) decode(r *wire.Reader) error { return decodeMap(r, (*map[K][]float64)(a)) }

// binner adapts a stats.Binner, which merges and encodes itself.
type binner stats.Binner

func (b *binner) merge(o accumulator) {
	(*stats.Binner)(b).Merge((*stats.Binner)(o.(*binner)))
}

func (b *binner) encode(w *wire.Writer)       { (*stats.Binner)(b).EncodeState(w) }
func (b *binner) decode(r *wire.Reader) error { return (*stats.Binner)(b).DecodeState(r) }

// encodeMap writes m's length, then every key and value in sorted key
// order.
func encodeMap[K key, V value](w *wire.Writer, m map[K]V) {
	ks := make([]K, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.SortFunc(ks, compareKeys[K])
	w.Uvarint(uint64(len(ks)))
	for _, k := range ks {
		put(w, k)
		put(w, m[k])
	}
}

// decodeMap replaces *m with the map encodeMap wrote.
func decodeMap[K key, V value](r *wire.Reader, m *map[K]V) error {
	n := r.Len()
	*m = make(map[K]V, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		k := get[K](r)
		(*m)[k] = get[V](r)
	}
	return r.Err()
}

// compareKeys orders map keys for encodeMap: strings, ints and facets
// by value, sizes by width, then height.
func compareKeys[K key](a, b K) int {
	switch a := any(a).(type) {
	case string:
		return cmp.Compare(a, any(b).(string))
	case int:
		return cmp.Compare(a, any(b).(int))
	case hb.Facet:
		return cmp.Compare(a, any(b).(hb.Facet))
	case hb.Size:
		b := any(b).(hb.Size)
		return cmp.Or(cmp.Compare(a.W, b.W), cmp.Compare(a.H, b.H))
	}
	panic("unreachable")
}

// put writes one key or value.
func put[T interface{ key | value }](w *wire.Writer, x T) {
	switch x := any(x).(type) {
	case string:
		w.String(x)
	case int:
		w.Int(x)
	case hb.Facet:
		w.Int(int(x))
	case hb.Size:
		w.Int(x.W)
		w.Int(x.H)
	case float64:
		w.Float64(x)
	case []float64:
		w.Float64s(x)
	}
}

// read decodes one value written by put into *p.
func read[T interface{ key | value }](r *wire.Reader, p *T) error {
	*p = get[T](r)
	return r.Err()
}

// get reads one key or value written by put.
func get[T interface{ key | value }](r *wire.Reader) (x T) {
	switch p := any(&x).(type) {
	case *string:
		*p = r.String()
	case *int:
		*p = r.Int()
	case *hb.Facet:
		*p = hb.Facet(r.Int())
	case *hb.Size:
		p.W = r.Int()
		p.H = r.Int()
	case *float64:
		*p = r.Float64()
	case *[]float64:
		*p = r.Float64s()
	}
	return x
}
