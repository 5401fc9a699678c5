package simnet

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"headerbid/internal/clock"
	"headerbid/internal/webreq"
)

// Tests for the fault vocabulary (outage windows, flapping, payload
// corruption, mid-body resets, slow-loris, error ramps) and for the
// pooled-network guarantee: Reset leaves no fault — and no fault-stream
// position — behind for the next visit.

func handleBody(n *Network, host, body string, service time.Duration) {
	n.Handle(host, func(req *webreq.Request) (int, string, time.Duration) {
		return 200, body, service
	})
}

// fetchAt schedules one fetch at virtual offset d and records the
// response under the given label.
func fetchAt(env *Env, d time.Duration, url string, got map[string]*webreq.Response, label string) {
	env.After(d, func() {
		env.Fetch(&webreq.Request{ID: int64(len(got) + 1), URL: url}, func(r *webreq.Response) {
			got[label] = r
		})
	})
}

func TestFaultOutageWindowRecovers(t *testing.T) {
	n, sched := newNet()
	n.SetRTT(10*time.Millisecond, 0)
	handleBody(n, "part.example", "ok", 0)
	n.Fault("part.example", FaultMode{OutageStart: time.Second, OutageDuration: 5 * time.Second})

	got := map[string]*webreq.Response{}
	env := n.Env()
	fetchAt(env, 0, "https://part.example/", got, "before")
	fetchAt(env, 3*time.Second, "https://part.example/", got, "during")
	fetchAt(env, 7*time.Second, "https://part.example/", got, "after")
	sched.Run()

	if r := got["before"]; r == nil || !r.OK() {
		t.Fatalf("before outage: %+v", got["before"])
	}
	if r := got["during"]; r == nil || r.Err == "" {
		t.Fatalf("during outage window should refuse: %+v", got["during"])
	}
	if r := got["after"]; r == nil || !r.OK() {
		t.Fatalf("after outage window should recover: %+v", got["after"])
	}
}

func TestFaultFlapAlternates(t *testing.T) {
	n, sched := newNet()
	n.SetRTT(10*time.Millisecond, 0)
	handleBody(n, "part.example", "ok", 0)
	n.Fault("part.example", FaultMode{FlapPeriod: 2 * time.Second})

	got := map[string]*webreq.Response{}
	env := n.Env()
	fetchAt(env, 500*time.Millisecond, "https://part.example/", got, "up1")
	fetchAt(env, 2500*time.Millisecond, "https://part.example/", got, "down1")
	fetchAt(env, 4500*time.Millisecond, "https://part.example/", got, "up2")
	fetchAt(env, 6500*time.Millisecond, "https://part.example/", got, "down2")
	sched.Run()

	for _, label := range []string{"up1", "up2"} {
		if r := got[label]; r == nil || !r.OK() {
			t.Fatalf("%s: flapping host should be up: %+v", label, got[label])
		}
	}
	for _, label := range []string{"down1", "down2"} {
		if r := got[label]; r == nil || r.Err == "" {
			t.Fatalf("%s: flapping host should be down: %+v", label, got[label])
		}
	}
}

func TestFaultTruncateCutsBody(t *testing.T) {
	n, sched := newNet()
	const body = `{"id":"auction-1","seatbid":[{"bid":[{"price":1.25}]}]}`
	handleBody(n, "part.example", body, 0)
	n.Fault("part.example", FaultMode{TruncateProb: 1})

	var resp *webreq.Response
	n.Env().Fetch(&webreq.Request{ID: 1, URL: "https://part.example/"}, func(r *webreq.Response) { resp = r })
	sched.Run()
	if resp == nil || resp.Err != "" || resp.Status != 200 {
		t.Fatalf("truncation must not become a transport error: %+v", resp)
	}
	if len(resp.Body) >= len(body) || !strings.HasPrefix(body, resp.Body) {
		t.Fatalf("body should be a strict prefix: %q", resp.Body)
	}
}

func TestFaultGarbleKeepsValidJSON(t *testing.T) {
	n, sched := newNet()
	handleBody(n, "part.example", `{"id":"a"}`, 0)
	n.Fault("part.example", FaultMode{GarbleProb: 1})

	var resp *webreq.Response
	n.Env().Fetch(&webreq.Request{ID: 1, URL: "https://part.example/"}, func(r *webreq.Response) { resp = r })
	sched.Run()
	if resp == nil || !resp.OK() {
		t.Fatalf("garbling must not become a transport error: %+v", resp)
	}
	if resp.Body != `{"x_chaos":1,"id":"a"}` {
		t.Fatalf("garbled body = %q", resp.Body)
	}
}

func TestGarbleBodyEdgeCases(t *testing.T) {
	cases := map[string]string{
		`{}`:      `{"x_chaos":1}`,
		`{"a":1}`: `{"x_chaos":1,"a":1}`,
		`[1,2]`:   `[1,2]`, // non-object: untouched
		``:        ``,
		`x`:       `x`,
	}
	for in, want := range cases {
		if got := garbleBody(in); got != want {
			t.Errorf("garbleBody(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestFaultResetMidBodyPaysFullWait(t *testing.T) {
	n, sched := newNet()
	n.SetRTT(40*time.Millisecond, 0)
	handleBody(n, "part.example", "never-seen", 100*time.Millisecond)
	n.Fault("part.example", FaultMode{ResetMidBodyProb: 1})

	env := n.Env()
	start := env.Now()
	var resp *webreq.Response
	var done time.Time
	env.Fetch(&webreq.Request{ID: 1, URL: "https://part.example/"}, func(r *webreq.Response) {
		resp, done = r, env.Now()
	})
	sched.Run()
	if resp == nil || resp.Err == "" || resp.Body != "" {
		t.Fatalf("mid-body reset should error with no body: %+v", resp)
	}
	// The client waits out rtt + service before learning the connection
	// died — unlike an up-front refusal, which costs one rtt.
	if elapsed := done.Sub(start); elapsed != 140*time.Millisecond {
		t.Fatalf("elapsed = %v, want 140ms (full rtt + service)", elapsed)
	}
}

func TestFaultSlowLorisDelaysDelivery(t *testing.T) {
	n, sched := newNet()
	n.SetRTT(40*time.Millisecond, 0)
	handleBody(n, "part.example", "ok", 0)
	n.Fault("part.example", FaultMode{SlowLorisProb: 1, SlowLorisStretch: 2 * time.Second})

	env := n.Env()
	start := env.Now()
	var resp *webreq.Response
	var done time.Time
	env.Fetch(&webreq.Request{ID: 1, URL: "https://part.example/"}, func(r *webreq.Response) {
		resp, done = r, env.Now()
	})
	sched.Run()
	if resp == nil || !resp.OK() || resp.Body != "ok" {
		t.Fatalf("slow-loris should still deliver: %+v", resp)
	}
	if elapsed := done.Sub(start); elapsed != 2040*time.Millisecond {
		t.Fatalf("elapsed = %v, want 2.04s (rtt + stretch)", elapsed)
	}
}

func TestFaultRampEscalates(t *testing.T) {
	n, sched := newNet()
	n.SetRTT(10*time.Millisecond, 0)
	handleBody(n, "part.example", "ok", 0)
	n.Fault("part.example", FaultMode{RampPerSecond: 0.1})

	got := map[string]*webreq.Response{}
	env := n.Env()
	// At t=0 the ramp contributes probability zero: no draw, no failure.
	fetchAt(env, 0, "https://part.example/", got, "start")
	// At t=20s the ramp has passed certainty.
	fetchAt(env, 20*time.Second, "https://part.example/", got, "later")
	sched.Run()
	if r := got["start"]; r == nil || !r.OK() {
		t.Fatalf("ramp at t=0 must be a no-op: %+v", got["start"])
	}
	if r := got["later"]; r == nil || r.Err == "" {
		t.Fatalf("ramp past certainty should fail: %+v", got["later"])
	}
}

// faultSeq runs a fixed request schedule against a host with the given
// fault mode installed and returns one line per response: outcome, body
// and delivery time — everything an observer downstream could see.
func faultSeq(n *Network, sched *clock.Scheduler) []string {
	handleBody(n, "part.example", `{"id":"a","price":1.5}`, 20*time.Millisecond)
	n.Fault("part.example", FaultMode{
		FailProb:  0.3,
		SpikeProb: 0.3, SpikeLatency: 800 * time.Millisecond,
		TruncateProb: 0.3,
		GarbleProb:   0.3,
	})
	env := n.Env()
	var out []string
	for i := 0; i < 24; i++ {
		id := int64(i + 1)
		env.After(time.Duration(i)*50*time.Millisecond, func() {
			env.Fetch(&webreq.Request{ID: id, URL: "https://part.example/hb"}, func(r *webreq.Response) {
				out = append(out, strconv.FormatInt(r.RequestID, 10)+" "+r.Err+" "+r.Body+" "+
					env.Now().Format(time.RFC3339Nano))
			})
		})
	}
	sched.Run()
	return out
}

// TestFaultStreamResetNoLeak is the pooled-reuse regression: a network
// that injected faults mid-run and was then Reset must replay the exact
// fault-draw sequence a fresh network produces — stream position,
// payload corruption and timing included. This is the property that
// makes pooled crawl workers byte-identical to fresh ones under chaos.
func TestFaultStreamResetNoLeak(t *testing.T) {
	const seed = 7

	fresh := func() []string {
		sched := clock.NewScheduler(time.Time{})
		return faultSeq(New(sched, seed), sched)
	}

	polluted := func() []string {
		sched := clock.NewScheduler(time.Time{})
		n := New(sched, 99)
		// A previous "visit" with a different fault regime, advancing the
		// fault stream and leaving a fault installed when it ends.
		handleBody(n, "other.example", "x", 0)
		n.Fault("other.example", FaultMode{FailProb: 0.9, SlowLorisProb: 0.5})
		env := n.Env()
		for i := 0; i < 9; i++ {
			env.Fetch(&webreq.Request{ID: int64(i + 100), URL: "https://other.example/"}, func(*webreq.Response) {})
		}
		sched.Run()

		sched.Reset(time.Time{})
		n.Reset(seed)
		return faultSeq(n, sched)
	}

	a, b := fresh(), polluted()
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Fatalf("pooled network diverged from fresh after Reset:\nfresh:\n%s\npooled:\n%s",
			strings.Join(a, "\n"), strings.Join(b, "\n"))
	}
}

// TestFaultClearedByReset: the fault table itself must not survive a
// Reset — the next visit starts fault-free.
func TestFaultClearedByReset(t *testing.T) {
	n, sched := newNet()
	handleBody(n, "part.example", "ok", 0)
	n.Fault("part.example", FaultMode{FailProb: 1})

	var resp *webreq.Response
	n.Env().Fetch(&webreq.Request{ID: 1, URL: "https://part.example/"}, func(r *webreq.Response) { resp = r })
	sched.Run()
	if resp == nil || resp.Err == "" {
		t.Fatalf("fault not active before reset: %+v", resp)
	}

	sched.Reset(time.Time{})
	n.Reset(1)
	handleBody(n, "part.example", "ok", 0)
	var resp2 *webreq.Response
	n.Env().Fetch(&webreq.Request{ID: 2, URL: "https://part.example/"}, func(r *webreq.Response) { resp2 = r })
	sched.Run()
	if resp2 == nil || !resp2.OK() {
		t.Fatalf("fault leaked across Reset: %+v", resp2)
	}
}

// TestFaultDrawsDoNotPerturbHealthyHosts: the property behind the
// dedicated fault stream — installing a fault on one host must not
// shift the latency jitter sequence of requests to other hosts, or a
// chaos variant's "unaffected" sites would silently drift from the
// baseline.
func TestFaultDrawsDoNotPerturbHealthyHosts(t *testing.T) {
	timings := func(withFault bool) []time.Duration {
		sched := clock.NewScheduler(time.Time{})
		n := New(sched, 42)
		handleBody(n, "healthy.example", "ok", 0)
		handleBody(n, "faulty.example", "ok", 0)
		if withFault {
			n.Fault("faulty.example", FaultMode{FailProb: 0.5, SpikeProb: 0.5, TruncateProb: 0.5})
		}
		env := n.Env()
		var out []time.Duration
		for i := 0; i < 16; i++ {
			// Interleave so any shared-stream coupling would show up. The
			// comparison is each healthy request's own latency: fault
			// effects legitimately move the global timeline (spikes push
			// the clock further), but the jitter drawn for a healthy
			// request must not depend on fault draws.
			issued := env.Now()
			env.Fetch(&webreq.Request{ID: int64(2*i + 1), URL: "https://faulty.example/"}, func(*webreq.Response) {})
			env.Fetch(&webreq.Request{ID: int64(2*i + 2), URL: "https://healthy.example/"}, func(r *webreq.Response) {
				out = append(out, env.Now().Sub(issued))
			})
			sched.Run()
		}
		return out
	}

	plain, chaotic := timings(false), timings(true)
	if len(plain) != len(chaotic) {
		t.Fatalf("healthy deliveries differ: %d vs %d", len(plain), len(chaotic))
	}
	for i := range plain {
		if plain[i] != chaotic[i] {
			t.Fatalf("healthy-host timing %d perturbed by fault draws: %v vs %v", i, plain[i], chaotic[i])
		}
	}
}

// TestFaultTableSharedReadOnly: a table installed with ShareFaults is
// never written by the network. Fault and ClearFault copy it first, and
// Reset drops the reference instead of clearing it, so every other
// network reading the same table keeps seeing the compiled faults.
func TestFaultTableSharedReadOnly(t *testing.T) {
	table := FaultTable{}
	table.Set("part.example", FaultMode{FailProb: 1, Err: "shared outage"})
	table.Set("www.slow.example", FaultMode{ExtraLatency: time.Second})
	if _, ok := table["slow.example"]; !ok || len(table) != 2 {
		t.Fatalf("Set must key by registrable domain: %v", table)
	}

	fetchErr := func(n *Network, sched *clock.Scheduler) string {
		var resp *webreq.Response
		n.Env().Fetch(&webreq.Request{ID: 1, URL: "https://part.example/"}, func(r *webreq.Response) { resp = r })
		sched.Run()
		if resp == nil {
			t.Fatal("no response delivered")
		}
		return resp.Err
	}

	a, schedA := newNet()
	b, schedB := newNet()
	handleBody(a, "part.example", "ok", 0)
	handleBody(b, "part.example", "ok", 0)
	a.ShareFaults(table)
	b.ShareFaults(table)

	a.ClearFault("part.example")
	a.Fault("other.example", FaultMode{FailProb: 1})
	if got := fetchErr(a, schedA); got != "" {
		t.Fatalf("ClearFault did not clear the fault on its own network: %q", got)
	}
	if got := fetchErr(b, schedB); got != "shared outage" {
		t.Fatalf("sharing network lost the compiled fault: %q", got)
	}
	if len(table) != 2 || table["part.example"].FailProb != 1 {
		t.Fatalf("Fault/ClearFault wrote through to the shared table: %v", table)
	}

	b.Reset(3)
	if len(table) != 2 {
		t.Fatalf("Reset cleared the shared table: %v", table)
	}
	handleBody(b, "part.example", "ok", 0)
	if got := fetchErr(b, schedB); got != "" {
		t.Fatalf("shared table survived Reset: %q", got)
	}
}
