package headerbid

import (
	"io"

	"headerbid/internal/crawler"
	"headerbid/internal/dataset"
	"headerbid/internal/obs"
)

// Visit is one completed site visit as delivered to sinks: the record
// plus per-day progress context (Done/Total reset at each crawl-day
// boundary, since later days' job counts depend on day-one detections).
type Visit = crawler.Visit

// A Sink consumes crawl visits as they stream out of a running
// Experiment, in deterministic crawl order (by day, then rank). Consume
// returning a non-nil error aborts the crawl. Close is called exactly
// once when the run ends (normally, by cancellation, or by error) and
// must flush any buffered state; a sink instance belongs to one run
// unless its type documents otherwise.
//
// Sinks serialize on the ordered emit path. For aggregation that doesn't
// need the stream order, attach a Metric via WithMetrics instead: it
// folds on the worker goroutines and never blocks emission.
type Sink interface {
	Consume(v Visit) error
	Close() error
}

// SinkFunc adapts a plain function to a Sink with a no-op Close.
type SinkFunc func(v Visit) error

// Consume calls f.
func (f SinkFunc) Consume(v Visit) error { return f(v) }

// Close is a no-op.
func (f SinkFunc) Close() error { return nil }

// ---------------------------------------------------------------------------
// Built-in sinks
// ---------------------------------------------------------------------------

// MetricSink adapts any Metric to the ordered Sink interface: each visit
// is folded on the emit path, in deterministic crawl order. Use it when
// a metric must observe exactly the visits ordered sinks saw (e.g. when
// pairing it with a JSONL sink cut short by cancellation); for plain
// aggregation prefer WithMetrics, which folds off the ordered path.
type MetricSink struct {
	m Metric
}

// NewMetricSink wraps m in an ordered sink.
//
//hbvet:allow deadexport documented by ExampleNewExperiment
func NewMetricSink(m Metric) *MetricSink { return &MetricSink{m: m} }

// Consume folds the record in.
func (s *MetricSink) Consume(v Visit) error {
	s.m.Add(v.Record)
	return nil
}

// Close is a no-op; the metric stays readable after the run.
func (s *MetricSink) Close() error { return nil }

// JSONLSink streams records to a JSONL dataset as they complete, so a
// 35k-site crawl writes its dataset with O(1) record memory.
type JSONLSink struct {
	w *dataset.Writer
}

// NewJSONLSink writes records to w (buffered; Close flushes).
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: dataset.NewWriter(w)}
}

// NewJSONLFileSink creates/truncates path and streams records to it;
// Close flushes and closes the file.
func NewJSONLFileSink(path string) (*JSONLSink, error) {
	w, err := dataset.NewFileWriter(path)
	if err != nil {
		return nil, err
	}
	return &JSONLSink{w: w}, nil
}

// Consume appends one JSON line.
func (s *JSONLSink) Consume(v Visit) error { return s.w.Write(v.Record) }

// Close flushes (and closes the file for file sinks).
func (s *JSONLSink) Close() error { return s.w.Close() }

// Count reports records written.
func (s *JSONLSink) Count() int { return s.w.Count() }

// TraceSink writes the spans of traced visits (see WithTrace) as one
// Chrome trace_event JSON file, loadable in Perfetto or chrome://tracing.
// Visits arrive in deterministic crawl order and process/thread ids are
// assigned in that order, so the file is byte-identical for a given seed
// and plan regardless of worker count. Untraced visits are skipped.
type TraceSink struct {
	tw *obs.TraceWriter
}

// NewTraceSink streams the trace JSON to w (Close finalizes the JSON;
// closing w stays the caller's).
func NewTraceSink(w io.Writer) *TraceSink {
	return &TraceSink{tw: obs.NewTraceWriter(w)}
}

// Consume appends the visit's spans (no-op for untraced visits).
func (s *TraceSink) Consume(v Visit) error {
	if v.Trace == nil {
		return nil
	}
	return s.tw.Write(v.Trace)
}

// Close finalizes the JSON document. A trace with zero visits still
// closes to a valid document.
func (s *TraceSink) Close() error { return s.tw.Close() }

// NewProgressSink reports per-day crawl progress to fn as visits stream
// out (fn receives visits-done and visits-scheduled for the current
// crawl day, matching the semantics hbcrawl displays).
func NewProgressSink(fn func(done, total int)) Sink {
	return SinkFunc(func(v Visit) error {
		if fn != nil {
			fn(v.Done, v.Total)
		}
		return nil
	})
}
