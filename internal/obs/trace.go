package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"headerbid/internal/clock"
)

// TraceWriter streams traced visits as Chrome trace_event JSON
// (the `{"traceEvents":[...]}` object form), loadable in Perfetto and
// chrome://tracing. Each traced visit becomes one process (pid assigned
// in emit order — deterministic, since the crawler emits in crawl
// order), each track one thread (tid in first-seen order within the
// visit). Timestamps are microseconds of virtual time since
// clock.Epoch. Serialization is hand-rendered with strconv so output
// bytes depend only on the events — no map iteration, no reflection.
type TraceWriter struct {
	w      io.Writer
	buf    []byte
	pid    int
	tracks []string // per-visit track table, reused across visits
	err    error
	open   bool
}

// NewTraceWriter starts a trace stream on w. Close finishes the JSON
// document; a stream with zero visits still closes to a valid file.
func NewTraceWriter(w io.Writer) *TraceWriter {
	return &TraceWriter{w: w, buf: make([]byte, 0, 4096)}
}

// Write appends one traced visit to the stream.
func (tw *TraceWriter) Write(vs *VisitSpans) error {
	if tw.err != nil {
		return tw.err
	}
	tw.buf = tw.buf[:0]
	if !tw.open {
		tw.open = true
		tw.buf = append(tw.buf, `{"traceEvents":[`...)
	}
	tw.pid++
	pid := tw.pid

	// Process metadata: one Perfetto process per traced visit.
	if pid > 1 {
		tw.buf = append(tw.buf, ',')
	}
	tw.buf = append(tw.buf, '\n')
	tw.meta(pid, 0, "process_name", vs.Domain+" (day "+strconv.Itoa(vs.Day)+")")
	tw.buf = append(tw.buf, ",\n"...)
	tw.meta(pid, 0, "process_sort_index", strconv.Itoa(pid))

	// Track table in first-seen order (deterministic: recording order).
	tw.tracks = tw.tracks[:0]
	for i := range vs.Spans {
		tw.track(vs.Spans[i].Track)
	}
	for i := range vs.Instants {
		tw.track(vs.Instants[i].Track)
	}
	for i, name := range tw.tracks {
		tw.buf = append(tw.buf, ",\n"...)
		tw.meta(pid, i+1, "thread_name", name)
	}

	for i := range vs.Spans {
		s := &vs.Spans[i]
		tw.buf = append(tw.buf, ",\n"...)
		tw.span(pid, tw.tid(s.Track), s)
	}
	for i := range vs.Instants {
		in := &vs.Instants[i]
		tw.buf = append(tw.buf, ",\n"...)
		tw.instant(pid, tw.tid(in.Track), in)
	}

	_, err := tw.w.Write(tw.buf)
	tw.err = err
	return err
}

// Close terminates the JSON document. The writer is unusable afterwards.
func (tw *TraceWriter) Close() error {
	if tw.err != nil {
		return tw.err
	}
	end := "\n]}\n"
	if !tw.open {
		end = `{"traceEvents":[]}` + "\n"
	}
	_, err := io.WriteString(tw.w, end)
	tw.err = errors.New("obs: trace writer closed")
	return err
}

// track interns a track name; tid is index+1 (tid 0 carries the process
// metadata). Linear scan: a visit has a handful of tracks.
func (tw *TraceWriter) track(name string) {
	for _, t := range tw.tracks {
		if t == name {
			return
		}
	}
	tw.tracks = append(tw.tracks, name)
}

func (tw *TraceWriter) tid(track string) int {
	for i, t := range tw.tracks {
		if t == track {
			return i + 1
		}
	}
	return 0
}

func (tw *TraceWriter) meta(pid, tid int, name, value string) {
	tw.buf = append(tw.buf, `{"ph":"M","pid":`...)
	tw.buf = strconv.AppendInt(tw.buf, int64(pid), 10)
	tw.buf = append(tw.buf, `,"tid":`...)
	tw.buf = strconv.AppendInt(tw.buf, int64(tid), 10)
	tw.buf = append(tw.buf, `,"name":"`...)
	tw.buf = append(tw.buf, name...)
	tw.buf = append(tw.buf, `","args":{"name":`...)
	tw.buf = appendJSONString(tw.buf, value)
	tw.buf = append(tw.buf, `}}`...)
}

func (tw *TraceWriter) span(pid, tid int, s *Span) {
	tw.head(pid, tid, "X", s.Name, s.Begin)
	dur := s.End.Sub(s.Begin)
	if dur < 0 {
		dur = 0
	}
	tw.buf = append(tw.buf, `,"dur":`...)
	tw.buf = strconv.AppendInt(tw.buf, dur.Microseconds(), 10)
	if s.Late || s.Retries > 0 || s.Detail != "" {
		tw.buf = append(tw.buf, `,"args":{`...)
		sep := false
		if s.Late {
			tw.buf = append(tw.buf, `"late":true`...)
			sep = true
		}
		if s.Retries > 0 {
			if sep {
				tw.buf = append(tw.buf, ',')
			}
			tw.buf = append(tw.buf, `"retries":`...)
			tw.buf = strconv.AppendInt(tw.buf, int64(s.Retries), 10)
			sep = true
		}
		if s.Detail != "" {
			if sep {
				tw.buf = append(tw.buf, ',')
			}
			tw.buf = append(tw.buf, `"detail":`...)
			tw.buf = appendJSONString(tw.buf, s.Detail)
		}
		tw.buf = append(tw.buf, '}')
	}
	tw.buf = append(tw.buf, '}')
}

func (tw *TraceWriter) instant(pid, tid int, in *Instant) {
	tw.head(pid, tid, "i", in.Name, in.At)
	tw.buf = append(tw.buf, `,"s":"t"`...)
	if in.Detail != "" {
		tw.buf = append(tw.buf, `,"args":{"detail":`...)
		tw.buf = appendJSONString(tw.buf, in.Detail)
		tw.buf = append(tw.buf, '}')
	}
	tw.buf = append(tw.buf, '}')
}

func (tw *TraceWriter) head(pid, tid int, ph, name string, at time.Time) {
	tw.buf = append(tw.buf, `{"ph":"`...)
	tw.buf = append(tw.buf, ph...)
	tw.buf = append(tw.buf, `","pid":`...)
	tw.buf = strconv.AppendInt(tw.buf, int64(pid), 10)
	tw.buf = append(tw.buf, `,"tid":`...)
	tw.buf = strconv.AppendInt(tw.buf, int64(tid), 10)
	tw.buf = append(tw.buf, `,"name":`...)
	tw.buf = appendJSONString(tw.buf, name)
	tw.buf = append(tw.buf, `,"ts":`...)
	tw.buf = strconv.AppendInt(tw.buf, virtualMicros(at), 10)
}

// virtualMicros is the trace timestamp: microseconds of virtual time
// since clock.Epoch (day N visits sit N days into the timeline).
func virtualMicros(t time.Time) int64 { return t.Sub(clock.Epoch).Microseconds() }

// appendJSONString appends s as a JSON string literal. Hand-rolled
// because strconv.AppendQuote emits Go escapes (\a, \v, \xNN) that are
// not valid JSON.
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			buf = append(buf, '\\', c)
		case c == '\n':
			buf = append(buf, `\n`...)
		case c == '\t':
			buf = append(buf, `\t`...)
		case c == '\r':
			buf = append(buf, `\r`...)
		case c < 0x20:
			const hex = "0123456789abcdef"
			buf = append(buf, `\u00`...)
			buf = append(buf, hex[c>>4], hex[c&0xf])
		default:
			// Multi-byte UTF-8 passes through verbatim; JSON strings
			// accept raw UTF-8.
			buf = append(buf, c)
		}
	}
	return append(buf, '"')
}

// traceEvent is the subset of the trace_event schema ValidateTrace
// checks. Decoding is off the hot path, so encoding/json is fine here.
type traceEvent struct {
	Ph   string `json:"ph"`
	Pid  int    `json:"pid"`
	Tid  int    `json:"tid"`
	Name string `json:"name"`
	Ts   int64  `json:"ts"`
	Dur  int64  `json:"dur"`
}

// ValidateTrace parses a trace stream and checks structural health: the
// document is the trace_event object form, every event is well-formed,
// and complete ("X") events nest properly per (pid, tid) — siblings may
// touch but never partially overlap. This is the trace-smoke oracle: it
// proves a crawl's trace loads in Perfetto-compatible tooling without
// needing Perfetto in CI.
//
//hbvet:allow deadexport check tests compare against: the trace validator of obs's tests, the root trace_test.go, TestTraceArtifact and hbcrawl's TestTraceSmoke (make trace-smoke)
func ValidateTrace(r io.Reader) error {
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return fmt.Errorf("obs: trace does not parse: %w", err)
	}
	byTrack := map[[2]int][]traceEvent{}
	for i, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M", "i", "X":
		default:
			return fmt.Errorf("obs: event %d: unknown phase %q", i, ev.Ph)
		}
		if ev.Name == "" {
			return fmt.Errorf("obs: event %d: empty name", i)
		}
		if ev.Pid <= 0 {
			return fmt.Errorf("obs: event %d (%s): pid %d", i, ev.Name, ev.Pid)
		}
		if ev.Ph != "M" && ev.Ts < 0 {
			return fmt.Errorf("obs: event %d (%s): negative ts", i, ev.Name)
		}
		if ev.Ph == "X" {
			if ev.Dur < 0 {
				return fmt.Errorf("obs: event %d (%s): negative dur", i, ev.Name)
			}
			key := [2]int{ev.Pid, ev.Tid}
			byTrack[key] = append(byTrack[key], ev)
		}
	}
	for key, evs := range byTrack {
		sort.SliceStable(evs, func(i, j int) bool {
			if evs[i].Ts != evs[j].Ts {
				return evs[i].Ts < evs[j].Ts
			}
			return evs[i].Dur > evs[j].Dur // outer span first
		})
		var stack []traceEvent
		for _, ev := range evs {
			for len(stack) > 0 && stack[len(stack)-1].Ts+stack[len(stack)-1].Dur <= ev.Ts {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				top := stack[len(stack)-1]
				if ev.Ts+ev.Dur > top.Ts+top.Dur {
					return fmt.Errorf("obs: pid %d tid %d: span %q [%d,%d] partially overlaps %q [%d,%d]",
						key[0], key[1], ev.Name, ev.Ts, ev.Ts+ev.Dur, top.Name, top.Ts, top.Ts+top.Dur)
				}
			}
			stack = append(stack, ev)
		}
	}
	return nil
}
