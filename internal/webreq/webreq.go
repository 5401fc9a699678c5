// Package webreq models the browser's web-request layer: the records a
// chrome.webRequest-style inspector sees, and the hook registry that lets
// an extension observe (without altering) every request and response the
// page makes. This is the detector's second observation channel.
package webreq

import (
	"strconv"
	"time"

	"headerbid/internal/urlkit"
)

// Method is an HTTP method; HB bid requests are typically POST.
type Method string

const (
	GET  Method = "GET"
	POST Method = "POST"
)

// Kind classifies what the page was fetching, mirroring the resource types
// the webRequest API exposes.
type Kind string

const (
	KindDocument Kind = "document"
	KindScript   Kind = "script"
	KindXHR      Kind = "xhr"
	KindCreative Kind = "creative" // ad markup/impression fetch
	KindBeacon   Kind = "beacon"   // win/render notifications
)

// Request is one outgoing page request. Its body, if any, is set with
// SetBody or SetPayload and read with Body and BodyLen.
type Request struct {
	ID      int64
	URL     string
	Method  Method
	Kind    Kind
	Sent    time.Time
	Referer string

	// Parse cache: a simulated request's URL is split exactly once and
	// the pieces are reused by every hop (network host lookup, server
	// handlers, detector hooks, host matching) instead of re-parsed.
	// Builders that assembled the URL from parts can prefill the query
	// view with PrefillParams. Requests are confined to one page event
	// loop, so the lazy fill needs no locking.
	hostDone    bool
	host        string
	registrable string
	paramsDone  bool
	params      urlkit.Query
	// queries is the storage a parsed query goes into: its page's
	// (Requests.New), or nil for a request of its own.
	queries *urlkit.Queries

	// The body: payload is the typed value an in-process builder sends
	// (SetPayload), nil for bytes from outside the simulation; body
	// holds the bytes once they are set or built, and bodyLen their
	// length, known before they are built.
	payload Payload
	body    string
	bodyLen int
}

// Payload is a request body in typed form: the value an in-process
// builder sends, which writes its own bytes (rtb.BidRequest, whose
// AppendJSON is the wire encoding).
type Payload interface {
	AppendJSON(dst []byte) ([]byte, error)
}

func (r *Request) ensureHost() {
	if !r.hostDone {
		r.hostDone = true
		r.host = urlkit.Host(r.URL)
		r.registrable = urlkit.RegistrableDomain(r.host)
	}
}

// Host returns the lower-case request host, parsed once and cached.
func (r *Request) Host() string { r.ensureHost(); return r.host }

// RegistrableHost returns the registrable domain (eTLD+1) of the request
// host, computed once and cached — the key both the simulated network's
// host table and the detector's partner matching use.
func (r *Request) RegistrableHost() string { r.ensureHost(); return r.registrable }

// Params returns the request's query parameters, parsed once and cached.
// The returned query is shared with every other caller (and possibly
// with the builder that prefilled it): treat it as read-only. A query
// parsed here lives in the request's storage (Requests) and is valid as
// long as the request is.
func (r *Request) Params() urlkit.Query {
	if !r.paramsDone {
		r.paramsDone = true
		qs := r.queries
		if qs == nil {
			qs = new(urlkit.Queries)
		}
		r.params = qs.Parse(r.URL)
	}
	return r.params
}

// PrefillParams seeds the query-parameter cache with the query the URL
// was just built from (urlkit.WithQuery), so the server side never
// re-parses what the client side encoded. The query is retained and
// shared; neither the builder nor any reader may modify it afterwards.
// Only valid when q is key-sorted with distinct keys and matches the
// URL's full query (base URL carried no query of its own).
func (r *Request) PrefillParams(q urlkit.Query) {
	r.paramsDone = true
	r.params = q
}

// SetPayload makes v the request's body, n bytes long once encoded: the
// body-side twin of PrefillParams. An in-process handler reads v itself
// (Payload) instead of decoding bytes, and the simulated network counts
// n, so the bytes are built only if something reads them (Body). The
// builder must have encoded v once to learn n (rtb.BidRequest.EncodedLen),
// and v is retained and shared: it must stay unmodified, and valid, for
// as long as the request is. Only in-process builders set a payload.
func (r *Request) SetPayload(v Payload, n int) { r.payload, r.body, r.bodyLen = v, "", n }

// SetBody makes s the request's body: the bytes of a request from
// outside the simulation, which carries no typed value.
func (r *Request) SetBody(s string) { r.payload, r.body, r.bodyLen = nil, s, len(s) }

// Payload returns the typed body SetPayload handed over, or nil. Treat
// it as read-only. No typed value crosses a socket, so a handler must
// decode Body when Payload is nil.
func (r *Request) Payload() Payload { return r.payload }

// BodyLen returns the body's length in bytes without building it.
func (r *Request) BodyLen() int { return r.bodyLen }

// Body returns the body's bytes: as set, or encoded from the payload on
// the first call, for a reader of bytes (a real socket, a handler's
// decode). The bytes are built once and live as long as the request.
func (r *Request) Body() string {
	if r.body == "" && r.payload != nil {
		if b, err := r.payload.AppendJSON(make([]byte, 0, r.bodyLen)); err == nil {
			r.body = string(b)
		}
	}
	return r.body
}

// Response is the matching response delivered to the page.
type Response struct {
	RequestID int64
	Status    int
	Body      string
	Received  time.Time
	// Err is a transport-level failure (timeout, refused); Status is 0
	// when Err is non-empty.
	Err string
}

// OK reports a usable 2xx response.
func (r *Response) OK() bool { return r.Err == "" && r.Status >= 200 && r.Status < 300 }

// Exchange pairs a request with its response (response may be nil if the
// page unloaded first).
type Exchange struct {
	Request  *Request
	Response *Response
}

// Latency returns the request->response delay, or 0 when unanswered.
func (x Exchange) Latency() time.Duration {
	if x.Response == nil || x.Request == nil {
		return 0
	}
	return x.Response.Received.Sub(x.Request.Sent)
}

// String is a compact log form.
func (x Exchange) String() string {
	status := "pending"
	if x.Response != nil {
		if x.Response.Err != "" {
			status = "err:" + x.Response.Err
		} else {
			status = strconv.Itoa(x.Response.Status)
		}
	}
	return string(x.Request.Method) + " " + x.Request.URL + " -> " + status +
		" (" + x.Latency().String() + ")"
}

// RequestHook observes an outgoing request; ResponseHook observes a
// delivered response. Hooks must not mutate their arguments — the paper's
// tool explicitly infers "without altering" the requests.
type (
	RequestHook  func(*Request)
	ResponseHook func(*Request, *Response)
)

// Inspector is the webRequest hook registry for one page. It records
// every exchange and fans out to registered hooks in registration order.
// The zero value is ready to use.
//
// Hooks are kept in append-ordered slices (registration order is the
// fan-out order), so notifying them is a plain iteration — the previous
// map-plus-sort registry allocated a sorted ID slice on every request of
// every visit.
//
// Exchanges are stored by value in one dense slice indexed by request ID
// (the browser mints IDs 1,2,3,... from NextID, so ID-1 is the slice
// index). The previous map[int64]*Exchange paid one Exchange allocation
// plus map growth on every request of every visit. Requests recorded
// with out-of-band IDs (tests driving SawRequest directly) spill into a
// small overflow map, keeping the external behavior identical.
type Inspector struct {
	nextID    int64
	reqHooks  []registeredReqHook
	respHooks []registeredRespHook
	hookSeq   int
	exchanges []Exchange          // exchanges[i] has Request.ID == i+1
	overflow  map[int64]*Exchange // non-sequential IDs only
	// order is the recording order by ID. It stays nil while every
	// request is sequential (the dense slice IS the order) and is
	// materialized only when an out-of-band ID first appears.
	order []int64
}

type registeredReqHook struct {
	id int
	fn RequestHook
}

type registeredRespHook struct {
	id int
	fn ResponseHook
}

// NewInspector returns an empty inspector.
func NewInspector() *Inspector {
	return &Inspector{}
}

// Reset returns the inspector to the state NewInspector would produce,
// reusing the hook and exchange storage. Pages pooled across crawl
// visits reset their inspector instead of allocating a new one. hookSeq
// is intentionally NOT reset: cancel funcs match hooks by id, so keeping
// ids monotonic across resets makes a stale cancel from a previous page
// a no-op instead of un-registering a current hook. order reverts to nil
// (not length zero) to restore the dense "slice index IS the recording
// order" invariant.
func (in *Inspector) Reset() {
	in.nextID = 0
	clear(in.reqHooks)
	in.reqHooks = in.reqHooks[:0]
	clear(in.respHooks)
	in.respHooks = in.respHooks[:0]
	clear(in.exchanges)
	in.exchanges = in.exchanges[:0]
	clear(in.overflow)
	in.order = nil
}

// OnRequest registers a request hook and returns a cancel func. Cancel
// nils the entry rather than splicing, so cancelling from inside a hook
// during dispatch cannot skip or re-run sibling hooks.
func (in *Inspector) OnRequest(h RequestHook) (cancel func()) {
	id := in.hookSeq
	in.hookSeq++
	in.reqHooks = append(in.reqHooks, registeredReqHook{id: id, fn: h})
	return func() {
		for i := range in.reqHooks {
			if in.reqHooks[i].id == id {
				in.reqHooks[i].fn = nil
				return
			}
		}
	}
}

// OnResponse registers a response hook and returns a cancel func (same
// cancellation semantics as OnRequest).
func (in *Inspector) OnResponse(h ResponseHook) (cancel func()) {
	id := in.hookSeq
	in.hookSeq++
	in.respHooks = append(in.respHooks, registeredRespHook{id: id, fn: h})
	return func() {
		for i := range in.respHooks {
			if in.respHooks[i].id == id {
				in.respHooks[i].fn = nil
				return
			}
		}
	}
}

// NextID allocates a request ID. The browser calls this when creating
// requests so IDs are unique per page.
func (in *Inspector) NextID() int64 {
	in.nextID++
	return in.nextID
}

// SawRequest records req and notifies request hooks.
func (in *Inspector) SawRequest(req *Request) {
	if req.ID == 0 {
		req.ID = in.NextID()
	}
	switch {
	case req.ID == int64(len(in.exchanges))+1:
		// The browser's sequential-ID fast path: record in place.
		in.exchanges = append(in.exchanges, Exchange{Request: req})
		if in.order != nil {
			in.order = append(in.order, req.ID)
		}
	case req.ID >= 1 && req.ID <= int64(len(in.exchanges)):
		// Re-recorded ID: last write wins, as with the former map. The
		// ID appears in the order twice, both resolving to the latest
		// exchange — exactly the old iteration behavior.
		in.exchanges[req.ID-1] = Exchange{Request: req}
		in.materializeOrder()
		in.order = append(in.order, req.ID)
	default:
		if in.overflow == nil {
			in.overflow = make(map[int64]*Exchange, 4)
		}
		in.materializeOrder()
		in.overflow[req.ID] = &Exchange{Request: req}
		in.order = append(in.order, req.ID)
	}
	for _, h := range in.reqHooks {
		if h.fn != nil {
			h.fn(req)
		}
	}
}

// materializeOrder builds the explicit recording order kept implicitly
// by the dense slice, on the first non-sequential recording.
func (in *Inspector) materializeOrder() {
	if in.order != nil {
		return
	}
	in.order = make([]int64, len(in.exchanges), len(in.exchanges)+4)
	for i := range in.exchanges {
		in.order[i] = int64(i) + 1
	}
}

// lookup returns the recorded exchange for a request ID, or nil.
func (in *Inspector) lookup(id int64) *Exchange {
	if id >= 1 && id <= int64(len(in.exchanges)) {
		return &in.exchanges[id-1]
	}
	return in.overflow[id]
}

// SawResponse records resp against its request and notifies response
// hooks. Responses for unknown request IDs are ignored (the page may have
// been torn down).
func (in *Inspector) SawResponse(resp *Response) {
	x := in.lookup(resp.RequestID)
	if x == nil {
		return
	}
	x.Response = resp
	for _, h := range in.respHooks {
		if h.fn != nil {
			h.fn(x.Request, resp)
		}
	}
}

// Exchanges returns all exchanges in request order.
//
//hbvet:allow deadexport test seam: the webreq, browser, crawler and livenet tests read a visit's recorded exchanges with it; production observes exchanges as they happen, through OnRequest and OnResponse
func (in *Inspector) Exchanges() []Exchange {
	if in.order == nil {
		out := make([]Exchange, len(in.exchanges))
		copy(out, in.exchanges)
		return out
	}
	out := make([]Exchange, 0, len(in.order))
	for _, id := range in.order {
		out = append(out, *in.lookup(id))
	}
	return out
}

// Pending returns the number of requests still awaiting a response.
func (in *Inspector) Pending() int {
	n := 0
	if in.order == nil {
		for i := range in.exchanges {
			if in.exchanges[i].Response == nil {
				n++
			}
		}
		return n
	}
	for _, id := range in.order {
		if in.lookup(id).Response == nil {
			n++
		}
	}
	return n
}
