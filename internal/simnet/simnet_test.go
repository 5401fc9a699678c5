package simnet

import (
	"testing"
	"time"

	"headerbid/internal/clock"
	"headerbid/internal/webreq"
)

func newNet() (*Network, *clock.Scheduler) {
	sched := clock.NewScheduler(time.Time{})
	return New(sched, 1), sched
}

func TestFetchRoundTrip(t *testing.T) {
	n, sched := newNet()
	n.SetRTT(40*time.Millisecond, 0)
	n.Handle("adnxs.com", func(req *webreq.Request) (int, string, time.Duration) {
		return 200, "pong", 100 * time.Millisecond
	})
	env := n.Env()
	start := env.Now()
	var resp *webreq.Response
	env.Fetch(&webreq.Request{ID: 1, URL: "https://bid.adnxs.com/hb/v1/bid"}, func(r *webreq.Response) {
		resp = r
	})
	sched.Run()
	if resp == nil || !resp.OK() || resp.Body != "pong" {
		t.Fatalf("resp = %+v", resp)
	}
	elapsed := env.Now().Sub(start)
	if elapsed != 140*time.Millisecond { // rtt + service
		t.Fatalf("elapsed = %v, want 140ms", elapsed)
	}
}

func TestSubdomainRouting(t *testing.T) {
	n, sched := newNet()
	n.Handle("adnxs.com", func(req *webreq.Request) (int, string, time.Duration) {
		return 200, "ok", 0
	})
	var got *webreq.Response
	n.Env().Fetch(&webreq.Request{ID: 2, URL: "https://deep.sub.adnxs.com/x"}, func(r *webreq.Response) { got = r })
	sched.Run()
	if got == nil || !got.OK() {
		t.Fatalf("subdomain not routed to registrable-domain handler: %+v", got)
	}
}

func TestUnknownHostErrors(t *testing.T) {
	n, sched := newNet()
	var resp *webreq.Response
	n.Env().Fetch(&webreq.Request{ID: 3, URL: "https://ghost.example/x"}, func(r *webreq.Response) { resp = r })
	sched.Run()
	if resp == nil || resp.Err == "" {
		t.Fatalf("unknown host should error: %+v", resp)
	}
}

func TestFaultInjectionFailProb(t *testing.T) {
	n, sched := newNet()
	n.Handle("flaky.example", func(req *webreq.Request) (int, string, time.Duration) {
		return 200, "ok", 0
	})
	n.Fault("flaky.example", FaultMode{FailProb: 1, Err: "injected reset"})
	var resp *webreq.Response
	n.Env().Fetch(&webreq.Request{ID: 4, URL: "https://flaky.example/"}, func(r *webreq.Response) { resp = r })
	sched.Run()
	if resp == nil || resp.Err != "injected reset" {
		t.Fatalf("fault not injected: %+v", resp)
	}
	n.ClearFault("flaky.example")
	var resp2 *webreq.Response
	n.Env().Fetch(&webreq.Request{ID: 5, URL: "https://flaky.example/"}, func(r *webreq.Response) { resp2 = r })
	sched.Run()
	if resp2 == nil || !resp2.OK() {
		t.Fatalf("fault not cleared: %+v", resp2)
	}
}

func TestFaultExtraLatency(t *testing.T) {
	n, sched := newNet()
	n.SetRTT(10*time.Millisecond, 0)
	n.Handle("slow.example", func(req *webreq.Request) (int, string, time.Duration) {
		return 200, "ok", 0
	})
	n.Fault("slow.example", FaultMode{ExtraLatency: 500 * time.Millisecond})
	env := n.Env()
	start := env.Now()
	var done time.Time
	env.Fetch(&webreq.Request{ID: 6, URL: "https://slow.example/"}, func(*webreq.Response) {
		done = env.Now()
	})
	sched.Run()
	if done.Sub(start) < 500*time.Millisecond {
		t.Fatalf("extra latency not applied: %v", done.Sub(start))
	}
}

func TestNegativeServiceClamped(t *testing.T) {
	n, sched := newNet()
	n.Handle("x.example", func(req *webreq.Request) (int, string, time.Duration) {
		return 200, "ok", -time.Hour
	})
	var resp *webreq.Response
	n.Env().Fetch(&webreq.Request{ID: 7, URL: "https://x.example/"}, func(r *webreq.Response) { resp = r })
	sched.Run()
	if resp == nil || !resp.OK() {
		t.Fatalf("negative service broke delivery: %+v", resp)
	}
}

func TestRequestsCounted(t *testing.T) {
	n, sched := newNet()
	n.Handle("x.example", func(req *webreq.Request) (int, string, time.Duration) { return 200, "", 0 })
	env := n.Env()
	for i := 0; i < 5; i++ {
		env.Fetch(&webreq.Request{ID: int64(i + 10), URL: "https://x.example/"}, func(*webreq.Response) {})
	}
	sched.Run()
	if n.Requests != 5 {
		t.Fatalf("requests = %d", n.Requests)
	}
}

func TestDeterministicTiming(t *testing.T) {
	run := func() time.Duration {
		n, sched := newNet()
		n.Handle("x.example", func(req *webreq.Request) (int, string, time.Duration) {
			return 200, "", 7 * time.Millisecond
		})
		env := n.Env()
		start := env.Now()
		var last time.Time
		for i := 0; i < 20; i++ {
			env.Fetch(&webreq.Request{ID: int64(i + 1), URL: "https://x.example/"}, func(*webreq.Response) {
				last = env.Now()
			})
		}
		sched.Run()
		return last.Sub(start)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("timing not deterministic: %v vs %v", a, b)
	}
}

func TestPostAndAfter(t *testing.T) {
	n, sched := newNet()
	env := n.Env()
	var order []int
	env.Post(func() { order = append(order, 1) })
	env.After(time.Millisecond, func() { order = append(order, 2) })
	sched.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v", order)
	}
}

// TestResetMakesQueuedCallsStale: calls still queued when the network is
// reset without its scheduler never complete — no handler run, no
// callback, no traffic counted — and calls made after the reset, while
// the stale events are still queued, get their own slots and complete
// normally.
func TestResetMakesQueuedCallsStale(t *testing.T) {
	n, sched := newNet()
	handled := 0
	h := func(req *webreq.Request) (int, string, time.Duration) {
		handled++
		return 200, req.URL, 5 * time.Millisecond
	}
	n.Handle("adnxs.com", h)
	env := n.Env()
	stale := 0
	for i := 0; i < 10; i++ { // enough to span several slab chunks
		env.Fetch(&webreq.Request{ID: int64(i + 1), URL: "https://bid.adnxs.com/old"}, func(*webreq.Response) { stale++ })
	}
	n.Reset(2)
	n.Handle("adnxs.com", h)
	var got []string
	for i := 0; i < 10; i++ {
		env.Fetch(&webreq.Request{ID: int64(i + 1), URL: "https://bid.adnxs.com/new"}, func(r *webreq.Response) {
			got = append(got, r.Body)
		})
	}
	sched.Run()
	if stale != 0 {
		t.Fatalf("%d calls from before Reset completed", stale)
	}
	if handled != 10 || len(got) != 10 || n.Requests != 10 {
		t.Fatalf("after Reset: %d handled, %d delivered, %d counted; want 10 each", handled, len(got), n.Requests)
	}
	for _, body := range got {
		if body != "https://bid.adnxs.com/new" {
			t.Fatalf("a post-Reset call delivered %q", body)
		}
	}
}

// TestPooledNetworkReusesCallStorage: once a network has carried a
// visit, a reset network carries the same visit again without
// allocating for its calls.
func TestPooledNetworkReusesCallStorage(t *testing.T) {
	n, sched := newNet()
	env := n.Env()
	cb := func(*webreq.Response) {}
	reqs := make([]webreq.Request, 12)
	visit := func() {
		sched.Reset(time.Time{})
		n.Reset(1)
		n.Handle("adnxs.com", func(*webreq.Request) (int, string, time.Duration) { return 200, "ok", 0 })
		for i := range reqs {
			reqs[i] = webreq.Request{ID: int64(i + 1), URL: "https://bid.adnxs.com/x"}
			env.Fetch(&reqs[i], cb)
		}
		sched.Run()
	}
	visit()
	if allocs := testing.AllocsPerRun(20, visit); allocs != 0 {
		t.Fatalf("a pooled visit of %d calls allocates %.0f times", len(reqs), allocs)
	}
}
