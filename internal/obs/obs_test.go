package obs

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"headerbid/internal/clock"
)

func sampleSpans() *VisitSpans {
	vt := NewVisitTrace()
	t0 := clock.Epoch
	vt.Span(TrackPage, "visit", t0, t0.Add(3*time.Second), SpanOpts{Detail: "loaded"})
	vt.Span(TrackAuction, "auction", t0.Add(100*time.Millisecond), t0.Add(700*time.Millisecond), SpanOpts{})
	vt.Span(TrackBidderPrefix+"rubicon", "bid", t0.Add(120*time.Millisecond), t0.Add(300*time.Millisecond), SpanOpts{Retries: 1})
	vt.Span(TrackBidderPrefix+"appnexus", "bid", t0.Add(120*time.Millisecond), t0.Add(900*time.Millisecond), SpanOpts{Late: true})
	vt.Instant(TrackBidderPrefix+"appnexus", "timeout", t0.Add(700*time.Millisecond), "")
	vt.Span(TrackAdServer, "adserver", t0.Add(700*time.Millisecond), t0.Add(850*time.Millisecond), SpanOpts{Detail: `quote " and \ ok`})
	return vt.Snapshot("example.org", 0)
}

func TestVisitTraceSnapshotAndReset(t *testing.T) {
	vt := NewVisitTrace()
	vt.Span(TrackPage, "visit", clock.Epoch, clock.Epoch.Add(time.Second), SpanOpts{})
	vt.Instant(TrackPage, "quarantine", clock.Epoch, "boom")
	vs := vt.Snapshot("a.example", 2)
	if vs.Domain != "a.example" || vs.Day != 2 || len(vs.Spans) != 1 || len(vs.Instants) != 1 {
		t.Fatalf("snapshot = %+v", vs)
	}
	vt.Reset()
	if got := vt.Snapshot("a.example", 2); len(got.Spans) != 0 || len(got.Instants) != 0 {
		t.Fatalf("reset did not clear: %+v", got)
	}
	// Snapshot must be detached from the pooled recorder.
	vt.Span(TrackPage, "visit", clock.Epoch, clock.Epoch, SpanOpts{})
	if len(vs.Spans) != 1 {
		t.Fatal("snapshot aliases recorder storage")
	}
}

func TestEnabledNilSafe(t *testing.T) {
	var vt *VisitTrace
	if vt.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	if !NewVisitTrace().Enabled() {
		t.Fatal("fresh recorder reports disabled")
	}
}

// TestDisabledPathZeroAllocs is the micro proof behind the bench gate's
// ALLOCS_CEILING holding with tracing compiled in: the guarded emission
// pattern on a nil recorder evaluates nothing and allocates nothing.
func TestDisabledPathZeroAllocs(t *testing.T) {
	var vt *VisitTrace
	name := "rubicon"
	begin := clock.Epoch
	end := clock.Epoch.Add(time.Second)
	allocs := testing.AllocsPerRun(1000, func() {
		if vt.Enabled() {
			vt.Span(TrackBidderPrefix+name, name, begin, end, SpanOpts{Retries: 1})
			vt.Instant(TrackPage, "quarantine", begin, "never")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled trace path allocates %.1f/op, want 0", allocs)
	}
}

func TestTracePlanSelect(t *testing.T) {
	domains := []string{"a.com", "b.net", "c.com", "d.com", "e.net"}
	p := &TracePlan{MaxSites: 2, Match: func(d string) bool { return strings.HasSuffix(d, ".com") }}
	got := p.Select(domains)
	want := []bool{true, false, true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Select = %v, want %v", got, want)
		}
	}
	all := (&TracePlan{}).Select(domains)
	for i := range all {
		if !all[i] {
			t.Fatalf("unfiltered plan skipped %s", domains[i])
		}
	}
}

func TestTraceWriterRoundTrip(t *testing.T) {
	writeOnce := func() []byte {
		var buf bytes.Buffer
		tw := NewTraceWriter(&buf)
		if err := tw.Write(sampleSpans()); err != nil {
			t.Fatal(err)
		}
		if err := tw.Write(sampleSpans()); err != nil {
			t.Fatal(err)
		}
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := writeOnce(), writeOnce()
	if !bytes.Equal(a, b) {
		t.Fatal("trace writer output is not deterministic for identical input")
	}
	if err := ValidateTrace(bytes.NewReader(a)); err != nil {
		t.Fatalf("writer output fails validation: %v", err)
	}
	if !bytes.Contains(a, []byte(`"process_name"`)) || !bytes.Contains(a, []byte(`"late":true`)) {
		t.Fatalf("trace missing expected annotations:\n%s", a)
	}
}

func TestTraceWriterEmpty(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ValidateTrace(&buf); err != nil {
		t.Fatalf("empty trace invalid: %v", err)
	}
}

func TestValidateTraceRejects(t *testing.T) {
	cases := map[string]string{
		"garbage":  `{"traceEvents":`,
		"phase":    `{"traceEvents":[{"ph":"Q","pid":1,"tid":1,"name":"x","ts":0}]}`,
		"pid":      `{"traceEvents":[{"ph":"i","pid":0,"tid":1,"name":"x","ts":0}]}`,
		"name":     `{"traceEvents":[{"ph":"i","pid":1,"tid":1,"name":"","ts":0}]}`,
		"overlap":  `{"traceEvents":[{"ph":"X","pid":1,"tid":1,"name":"a","ts":0,"dur":10},{"ph":"X","pid":1,"tid":1,"name":"b","ts":5,"dur":10}]}`,
		"negative": `{"traceEvents":[{"ph":"X","pid":1,"tid":1,"name":"a","ts":-1,"dur":1}]}`,
	}
	for name, doc := range cases {
		if err := ValidateTrace(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: validation accepted %s", name, doc)
		}
	}
	nested := `{"traceEvents":[{"ph":"X","pid":1,"tid":1,"name":"a","ts":0,"dur":10},{"ph":"X","pid":1,"tid":1,"name":"b","ts":2,"dur":3},{"ph":"X","pid":1,"tid":1,"name":"c","ts":5,"dur":5}]}`
	if err := ValidateTrace(strings.NewReader(nested)); err != nil {
		t.Errorf("proper nesting rejected: %v", err)
	}
}

func TestRegistryTotalsAndJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Worker(0).Visits.Add(3)
	reg.Worker(1).Visits.Add(2)
	reg.Worker(1).WireBytesIn.Add(100)
	reg.Worker(regShards + 1).HB.Add(1) // masks onto shard 1
	tot := reg.Totals()
	if tot.Visits != 5 || tot.WireBytesIn != 100 || tot.HB != 1 {
		t.Fatalf("totals = %+v", tot)
	}
	js := string(tot.AppendJSON(nil))
	if !strings.Contains(js, `"visits":5`) || !strings.Contains(js, `"wire_bytes_in":100`) {
		t.Fatalf("json = %s", js)
	}
	var nilReg *Registry
	if nilReg.Totals() != (Totals{}) {
		t.Fatal("nil registry totals nonzero")
	}
}

func TestDebugMux(t *testing.T) {
	reg := NewRegistry()
	reg.Worker(0).Visits.Add(7)
	mux := NewDebugMux(reg)

	// The mux serves /debug/ only; an operator probe path is not found.
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rr.Code != http.StatusNotFound {
		t.Fatalf("healthz: %d %q, want 404", rr.Code, rr.Body.String())
	}

	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/debug/vars", nil))
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), `"visits":7`) {
		t.Fatalf("vars: %d %q", rr.Code, rr.Body.String())
	}

	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/debug/pprof/cmdline", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("pprof/cmdline: %d", rr.Code)
	}
}

// TestTraceArtifact validates a trace file produced outside the test —
// point HB_TRACE_FILE at a crawl's output (hbcrawl -trace) and
// this test becomes the parse/nesting oracle.
func TestTraceArtifact(t *testing.T) {
	path := os.Getenv("HB_TRACE_FILE")
	if path == "" {
		t.Skip("HB_TRACE_FILE not set; point it at an hbcrawl -trace file")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := ValidateTrace(f); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
