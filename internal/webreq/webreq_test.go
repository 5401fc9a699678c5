package webreq

import (
	"testing"
	"time"
)

func TestInspectorRecordsExchanges(t *testing.T) {
	in := NewInspector()
	req := &Request{URL: "https://bid.adnxs.com/hb/v1/bid", Method: POST, Sent: time.Now()}
	in.SawRequest(req)
	if req.ID == 0 {
		t.Fatal("request ID not assigned")
	}
	in.SawResponse(&Response{RequestID: req.ID, Status: 200, Received: req.Sent.Add(120 * time.Millisecond)})

	xs := in.Exchanges()
	if len(xs) != 1 {
		t.Fatalf("exchanges = %d", len(xs))
	}
	if xs[0].Latency() != 120*time.Millisecond {
		t.Fatalf("latency = %v", xs[0].Latency())
	}
	if in.Pending() != 0 {
		t.Fatalf("pending = %d", in.Pending())
	}
}

func TestInspectorHooksFireInOrder(t *testing.T) {
	in := NewInspector()
	var order []string
	in.OnRequest(func(*Request) { order = append(order, "r1") })
	in.OnRequest(func(*Request) { order = append(order, "r2") })
	in.OnResponse(func(*Request, *Response) { order = append(order, "p1") })
	req := &Request{URL: "https://x.example/"}
	in.SawRequest(req)
	in.SawResponse(&Response{RequestID: req.ID})
	want := []string{"r1", "r2", "p1"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestInspectorHookCancel(t *testing.T) {
	in := NewInspector()
	n := 0
	cancel := in.OnRequest(func(*Request) { n++ })
	in.SawRequest(&Request{URL: "https://a.example/"})
	cancel()
	in.SawRequest(&Request{URL: "https://b.example/"})
	if n != 1 {
		t.Fatalf("hook fired %d times after cancel, want 1", n)
	}
}

func TestInspectorUnknownResponseIgnored(t *testing.T) {
	in := NewInspector()
	in.SawResponse(&Response{RequestID: 999}) // must not panic or record
	if len(in.Exchanges()) != 0 {
		t.Fatal("phantom exchange recorded")
	}
}

func TestInspectorPending(t *testing.T) {
	in := NewInspector()
	a := &Request{URL: "https://a.example/"}
	b := &Request{URL: "https://b.example/"}
	in.SawRequest(a)
	in.SawRequest(b)
	if in.Pending() != 2 {
		t.Fatalf("pending = %d", in.Pending())
	}
	in.SawResponse(&Response{RequestID: a.ID})
	if in.Pending() != 1 {
		t.Fatalf("pending = %d", in.Pending())
	}
}

// TestMatchHosts: applying a partner list (Figure 3) to the recorded
// exchanges by their requests' registrable hosts, as the detector does.
func TestMatchHosts(t *testing.T) {
	in := NewInspector()
	for _, u := range []string{
		"https://bid.adnxs.com/hb/v1/bid",
		"https://cdn.static.example/jquery.js",
		"https://sync.rubiconproject.com/pixel",
	} {
		in.SawRequest(&Request{URL: u})
	}
	partners := map[string]bool{"adnxs.com": true, "rubiconproject.com": true}
	matched := 0
	for _, x := range in.Exchanges() {
		if partners[x.Request.RegistrableHost()] {
			matched++
		}
	}
	if matched != 2 {
		t.Fatalf("matched %d, want 2", matched)
	}
}

// TestHostSetNormalizes: a request's registrable host is lower-case
// eTLD+1 whatever the URL's spelling, and empty without a host.
func TestHostSetNormalizes(t *testing.T) {
	if got := (&Request{URL: "https://Bid.ADNXS.com/hb/v1/bid"}).RegistrableHost(); got != "adnxs.com" {
		t.Fatalf("registrable host = %q", got)
	}
	if got := (&Request{URL: ""}).RegistrableHost(); got != "" {
		t.Fatalf("empty URL has registrable host %q", got)
	}
}

func TestResponseOK(t *testing.T) {
	cases := []struct {
		r    Response
		want bool
	}{
		{Response{Status: 200}, true},
		{Response{Status: 204}, true},
		{Response{Status: 404}, false},
		{Response{Status: 500}, false},
		{Response{Err: "timeout"}, false},
		{Response{Status: 200, Err: "reset"}, false},
	}
	for _, c := range cases {
		if got := c.r.OK(); got != c.want {
			t.Errorf("OK(%+v) = %v", c.r, got)
		}
	}
}

func TestRequestParamsAndHost(t *testing.T) {
	r := &Request{URL: "https://Ads.Example.com/serve?hb_pb=0.5"}
	if r.Host() != "ads.example.com" {
		t.Fatalf("host = %q", r.Host())
	}
	if r.Params().Get("hb_pb") != "0.5" {
		t.Fatalf("params = %v", r.Params())
	}
}

func TestExchangeString(t *testing.T) {
	req := &Request{URL: "https://x.example/a", Method: GET, Sent: time.Now()}
	x := Exchange{Request: req}
	if s := x.String(); s == "" {
		t.Fatal("empty string for pending exchange")
	}
	x.Response = &Response{Err: "refused"}
	if s := x.String(); s == "" {
		t.Fatal("empty string for error exchange")
	}
}

func TestInspectorReset(t *testing.T) {
	in := NewInspector()
	n := 0
	cancelOld := in.OnRequest(func(*Request) { n++ })
	in.OnResponse(func(*Request, *Response) { n += 100 })
	r := &Request{URL: "https://a.example/x"}
	r.ID = in.NextID()
	in.SawRequest(r)
	in.SawResponse(&Response{RequestID: r.ID, Status: 200})
	if n != 101 || len(in.Exchanges()) != 1 {
		t.Fatalf("pre-reset n=%d exchanges=%d", n, len(in.Exchanges()))
	}
	// Force the overflow/order slow path so Reset must restore the dense
	// invariant too.
	in.SawRequest(&Request{ID: 99, URL: "https://oob.example/"})
	if len(in.Exchanges()) != 2 {
		t.Fatalf("overflow recording failed")
	}

	in.Reset()
	if len(in.Exchanges()) != 0 || in.Pending() != 0 {
		t.Fatalf("exchanges survived reset")
	}
	n = 0
	r2 := &Request{URL: "https://b.example/y"}
	r2.ID = in.NextID()
	if r2.ID != 1 {
		t.Fatalf("NextID after reset = %d, want 1", r2.ID)
	}
	in.SawRequest(r2)
	if n != 0 {
		t.Fatalf("old hooks survived reset: n = %d", n)
	}

	// A cancel issued before the reset must not unregister a hook the
	// reset inspector registered afterwards.
	in.OnRequest(func(*Request) { n++ })
	cancelOld()
	r3 := &Request{URL: "https://c.example/z"}
	r3.ID = in.NextID()
	in.SawRequest(r3)
	if n != 1 {
		t.Fatalf("stale cancel killed new hook: n = %d", n)
	}
	if got := len(in.Exchanges()); got != 2 {
		t.Fatalf("exchanges after reset = %d, want 2", got)
	}
}
