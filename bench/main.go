// Command hbbench is the repository benchmark. Each invocation runs one
// workload in its own process, checks the program's outputs, and prints
// every metric as "name value unit", then one JSON line describing the
// run (rounds, digests, host), then one JSON result line.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload census --seed 1 --seconds 10 --trace 0
//	cd bench && go build -o hbbench . && ./hbbench -workload revisit -seed 3 -trace 1
//
// Without -trace the metrics are the end-to-end ones; with -trace 1 the
// run records CPU and allocation profiles and spans around the public
// calls it makes, and reports the per-layer ledger instead. See
// README.md for the metrics, the workloads and how to read the ledger.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"headerbid"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hbbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: census, revisit, chaos or replay")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", nominalSeconds, "measured run length; scales the number of rounds")
	trace := fs.Int("trace", 0, "1 reports the per-layer ledger instead of the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		fmt.Fprintf(stderr, "hbbench: unknown workload %q (census, revisit, chaos, replay)\n", *name)
		return 2
	case *seconds < 1:
		fmt.Fprintf(stderr, "hbbench: -seconds must be at least 1\n")
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "hbbench: -trace must be 0 or 1\n")
		return 2
	}

	// The benchmark runs on one processor: on a shared host a second
	// thread of work measures the scheduler and the neighbours more than
	// the program.
	runtime.GOMAXPROCS(1)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := execute(ctx, *w, *seed, w.size.scaled(*seconds), *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "hbbench: %s: %v\n", *name, err)
		return 1
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintf(stderr, "hbbench: %v\n", err)
		return 1
	}
	for _, p := range res.info.Problems {
		fmt.Fprintf(stderr, "hbbench: output check failed: %s\n", p)
	}
	if !res.correct {
		return 1
	}
	return 0
}

// bench is the state of one run: what the workload measured and checked.
type bench struct {
	seed    int64
	workers int
	tr      *tracer // nil unless -trace

	speed   *hostSpeed // nil on -trace runs
	setups  []span
	rounds  []round
	open    sample
	traced  bool
	peakRSS float64

	attempted, failed int
	problems          []string
	digests           []digest

	// Per-layer observations, reported by -trace runs.
	genMSPerKSite, renderMS, variantS             []float64
	shardKB, unmarshalMS, foldMS, marshalMS       []float64
	decodeNS                                      int64
	decoded                                       int
	jsonlBytes, jsonlRecords                      int64
	wireVisits, wireRequests, wireBytes, poolMiss uint64
}

type digest struct {
	Name   string `json:"name"`
	SHA256 string `json:"sha256"`
}

// setUpWorld generates a round's world reps times, each one a timed
// set-up, and returns the last.
func (b *bench) setUpWorld(seed int64, sites, reps int) *headerbid.World {
	var w *headerbid.World
	for i := 0; i < max(reps, 1); i++ {
		runtime.GC() // keep the previous round's garbage out of the timing
		var at span
		w, at = b.generate(seed, sites)
		b.setups = append(b.setups, at)
	}
	return w
}

// generate builds one world and times it.
func (b *bench) generate(seed int64, sites int) (*headerbid.World, span) {
	cfg := headerbid.DefaultWorldConfig(seed)
	cfg.NumSites = sites
	start := wallNow()
	w := headerbid.GenerateWorld(cfg)
	at := span{start, wallNow()}
	b.genMSPerKSite = append(b.genMSPerKSite, ms(at.d())/(float64(sites)/1000))
	return w, at
}

// setUpSince records a set-up that started at start and ends now.
func (b *bench) setUpSince(start time.Time) {
	b.setups = append(b.setups, span{start, wallNow()})
}

// probe wraps the figure report in a probe Metric on -trace runs.
func (b *bench) probe(fr *headerbid.FigureReport) (*probe, headerbid.Metric) {
	if b.tr == nil {
		return nil, fr
	}
	p := b.tr.newProbe(fr)
	return p, p
}

// timed wraps a sink in emit timing on -trace runs.
func (b *bench) timed(s headerbid.Sink) headerbid.Sink {
	if b.tr == nil {
		return s
	}
	return timedSink{Sink: s, tr: b.tr}
}

func (b *bench) render(fr *headerbid.FigureReport) []byte {
	var buf bytes.Buffer
	start := wallNow()
	fr.Render(&buf)
	b.renderMS = append(b.renderMS, ms(wallNow().Sub(start)))
	return buf.Bytes()
}

// phaseStart opens the measured phase: peak RSS counts from here.
func (b *bench) phaseStart() error {
	if err := resetPeakRSS(); err != nil {
		return err
	}
	if b.tr != nil {
		b.tr.startSampler()
	}
	return nil
}

func (b *bench) phaseEnd() error {
	if b.tr != nil {
		b.tr.stopSampler()
	}
	var err error
	b.peakRSS, err = peakRSSMB()
	return err
}

// segmentStart settles the heap before a stretch of rounds with a forced
// GC, so each round starts from the data the workload holds, as a fresh
// process per world would. On -trace runs it also takes the base of the
// allocation profile.
func (b *bench) segmentStart() error {
	if b.tr != nil {
		return b.tr.heapSnapshot(true)
	}
	runtime.GC()
	return nil
}

func (b *bench) segmentEnd() error {
	if b.tr != nil {
		return b.tr.heapSnapshot(false)
	}
	return nil
}

// begin opens a round; on -trace runs every second round is traced.
func (b *bench) begin() error {
	b.traced = b.tr != nil && len(b.rounds)%2 == 1
	if b.traced {
		if err := b.tr.startRound(); err != nil {
			return err
		}
	}
	b.open = takeSample()
	return nil
}

func (b *bench) end(items int) error {
	b.rounds = append(b.rounds, between(b.open, takeSample(), items, b.traced))
	if b.traced {
		return b.tr.endRound()
	}
	return nil
}

func (b *bench) lastTraced() bool { return len(b.rounds) > 0 && b.rounds[len(b.rounds)-1].traced }

func (b *bench) addWire(now, base headerbid.TelemetryTotals) {
	b.wireVisits += now.Visits - base.Visits
	b.wireRequests += now.WireRequests - base.WireRequests
	b.wireBytes += now.WireBytesIn + now.WireBytesOut - base.WireBytesIn - base.WireBytesOut
	b.poolMiss += now.PoolMisses - base.PoolMisses
}

func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// count records attempted operations; missing and quarantined ones
// failed.
func (b *bench) count(attempted, done, quarantined int) {
	b.attempted += attempted
	b.failed += max(attempted-done, 0) + quarantined
}

func (b *bench) digest(name, sha string) { b.digests = append(b.digests, digest{name, sha}) }

type metric struct {
	name  string
	value float64
	unit  string
}

type result struct {
	metrics           []metric
	info              info
	correct           bool
	attempted, failed int
}

// info is the run record printed ahead of the result line.
type info struct {
	Workload       string     `json:"workload"`
	Seed           int64      `json:"seed"`
	Trace          bool       `json:"trace"`
	RoundItemsPerS []float64  `json:"round_items_per_s"`
	ItemsPerSIQR   [2]float64 `json:"items_per_s_iqr"`
	RoundSlowdown  []float64  `json:"round_host_slowdown"`
	SetupS         []float64  `json:"setup_s"`
	Slowdown       float64    `json:"host_slowdown"`
	Digest         string     `json:"digest"`
	Digests        []digest   `json:"digests"`
	Problems       []string   `json:"problems,omitempty"`
	Go             string     `json:"go"`
	GOMAXPROCS     int        `json:"gomaxprocs"`
	NProc          int        `json:"nproc"`
	Workers        int        `json:"workers"`
	CPU            string     `json:"cpu"`
}

// execute runs one workload at size sz and computes its metrics.
func execute(ctx context.Context, w workload, seed int64, sz size, trace bool) (result, error) {
	b := &bench{seed: seed, workers: 1}
	if trace {
		tr, err := newTracer()
		if err != nil {
			return result{}, err
		}
		defer tr.close()
		b.tr = tr
	} else {
		b.speed = startHostSpeed()
	}
	err := w.run(ctx, b, sz)
	if b.speed != nil {
		if serr := b.speed.stop(); err == nil {
			err = serr
		}
	}
	if err != nil {
		return result{}, err
	}
	res := result{correct: len(b.problems) == 0, attempted: b.attempted, failed: b.failed}
	if !res.correct {
		res.failed = res.attempted
	}
	if trace {
		l, err := b.tr.ledger(ctx)
		if err != nil {
			return result{}, err
		}
		res.metrics = b.perLayer(l)
	} else {
		res.metrics = b.endToEnd()
	}
	for _, m := range res.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return result{}, fmt.Errorf("metric %s is not a finite number", m.name)
		}
	}
	res.info = b.info(w.name, trace)
	return res, nil
}

func (b *bench) info(name string, trace bool) info {
	rates := roundRates(b.rounds)
	q1, _, q3 := quartiles(rates)
	slow := make([]float64, len(b.rounds))
	for i, r := range b.rounds {
		slow[i], _, _ = b.speed.within(r.at)
	}
	setups := make([]float64, len(b.setups))
	for i, s := range b.setups {
		setups[i] = s.d().Seconds()
	}
	all := sha256.New()
	for _, d := range b.digests {
		fmt.Fprintf(all, "%s %s\n", d.Name, d.SHA256)
	}
	return info{
		Workload: name, Seed: b.seed, Trace: trace,
		RoundItemsPerS: rates, ItemsPerSIQR: [2]float64{q1, q3}, RoundSlowdown: slow,
		SetupS: setups, Slowdown: b.speed.mean(),
		Digest: hex.EncodeToString(all.Sum(nil)), Digests: b.digests, Problems: b.problems,
		Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Workers: b.workers, CPU: cpuModel(),
	}
}

func roundRates(rs []round) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.rate()
	}
	return out
}

// ratio is a/b, or 0 when nothing was counted.
func ratio[A, B int | int64 | uint64 | float64](a A, b B) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// endToEnd computes the metrics of an untraced run. Every timing is
// scaled to the speed of the reference host alone (see calibrate.go):
// each round and each set-up by the slowdown the host-speed readings
// taken during it show, once the readings' own time is taken out.
func (b *bench) endToEnd() []metric {
	t := totals(b.rounds)
	rates := make([]float64, len(b.rounds))
	cpu := make([]float64, len(b.rounds))
	for i, r := range b.rounds {
		slow, wall, readingCPU := b.speed.within(r.at)
		rates[i] = ratio(r.items, (r.at.d()-wall).Seconds()) * slow
		cpu[i] = ratio(us(r.cpu-readingCPU), r.items) / slow
	}
	setups := make([]float64, len(b.setups))
	for i, s := range b.setups {
		slow, wall, _ := b.speed.within(s)
		setups[i] = (s.d() - wall).Seconds() / slow
	}
	return []metric{
		{"setup_s", median(setups), "s"},
		{"items_per_s", median(rates), "1/s"},
		{"cpu_us_per_item", median(cpu), "us"},
		{"allocs_per_item", ratio(t.mallocs, t.items), "count"},
		{"alloc_bytes_per_item", ratio(t.bytes, t.items), "B"},
		{"peak_rss_mb", b.peakRSS, "MB"},
	}
}

// perLayer computes the metrics of a -trace run. CPU figures cover the
// traced rounds; allocation, GC and output figures cover every round.
func (b *bench) perLayer(l ledger) []metric {
	var traced, plain []round
	for _, r := range b.rounds {
		if r.traced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	tt, all := totals(traced), totals(b.rounds)
	tracedRate := median(roundRates(traced))
	out := []metric{
		{"trace.items_per_s", tracedRate, "1/s"},
		{"trace.overhead_pct", 100 * (ratio(median(roundRates(plain)), tracedRate) - 1), "%"},
		{"trace.cpu_us_per_item", ratio(us(tt.cpu), tt.items), "us"},
	}
	// Each ledger ends with the part of the measured total the profile
	// did not see: CPU the sampler missed, and tiny allocations that
	// shared a 16-byte block (the heap profile samples blocks, the
	// malloc count counts allocations).
	cpuLeft, allocsLeft := ratio(us(tt.cpu), tt.items), ratio(all.mallocs, all.items)
	for _, layer := range layers {
		v := ratio(l.cpuNS[layer]/1e3, tt.items)
		cpuLeft -= v
		out = append(out, metric{"self_us_per_item." + layer, v, "us"})
	}
	out = append(out, metric{"self_us_per_item.unattributed", cpuLeft, "us"})
	for _, layer := range layers {
		v := ratio(l.allocs[layer], all.items)
		allocsLeft -= v
		out = append(out, metric{"allocs_per_item." + layer, v, "count"})
	}
	out = append(out, metric{"allocs_per_item.unattributed", allocsLeft, "count"})
	v, c := &b.tr.visits, &b.tr.visits.c
	variantMax := 0.0
	for _, s := range b.variantS {
		variantMax = max(variantMax, s)
	}
	return append(out, []metric{
		{"world.generate_ms_per_ksite", median(b.genMSPerKSite), "ms"},
		{"visit.hb.us_p50", percentile(v.hbUS, 0.50), "us"},
		{"visit.hb.us_p99", percentile(v.hbUS, 0.99), "us"},
		{"visit.nonhb.us_p50", percentile(v.nonHBUS, 0.50), "us"},
		{"visit.nonhb.us_p99", percentile(v.nonHBUS, 0.99), "us"},
		{"fold.figures.ns_per_record", ratio(v.foldNS, v.folds), "ns"},
		{"emit.jsonl.ns_per_record", ratio(b.tr.emitNS, b.tr.emitN), "ns"},
		{"emit.jsonl.bytes_per_record", ratio(b.jsonlBytes, b.jsonlRecords), "B"},
		{"emit.lag_us_p50", percentile(b.tr.lagUS, 0.50), "us"},
		{"emit.lag_us_p99", percentile(b.tr.lagUS, 0.99), "us"},
		{"report.render_ms", median(b.renderMS), "ms"},
		{"dataset.decode_ns_per_record", ratio(b.decodeNS, b.decoded), "ns"},
		{"snapshot.marshal_ms", median(b.marshalMS), "ms"},
		{"snapshot.unmarshal_ms", median(b.unmarshalMS), "ms"},
		{"snapshot.fold_ms", median(b.foldMS), "ms"},
		{"snapshot.kb_per_shard", median(b.shardKB), "kB"},
		{"scenario.variant_s_p50", median(b.variantS), "s"},
		{"scenario.variant_s_max", variantMax, "s"},
		{"substrate.wire_requests_per_visit", ratio(b.wireRequests, b.wireVisits), "count"},
		{"substrate.wire_kb_per_visit", ratio(float64(b.wireBytes)/1024, b.wireVisits), "kB"},
		{"substrate.pool_miss_per_kvisit", ratio(1000*b.poolMiss, b.wireVisits), "count"},
		{"protocols.bid_posts_per_hb_visit", ratio(c.bidPosts, c.hb), "count"},
		{"protocols.bid_error_frac", ratio(c.bidErrors, c.bidPosts), "ratio"},
		{"protocols.retries_per_kvisit", ratio(1000*c.retries, c.visits), "count"},
		{"protocols.abandoned_per_kvisit", ratio(1000*c.abandon, c.visits), "count"},
		{"protocols.late_bid_frac", ratio(c.late, c.bids), "ratio"},
		{"measurement.hb_frac", ratio(c.hb, c.visits), "ratio"},
		{"measurement.timeout_frac", ratio(c.timedOut, c.visits), "ratio"},
		{"measurement.quarantine_per_kvisit", ratio(1000*c.quarantined, c.visits), "count"},
		{"runtime.gc_cycles_per_kitem", ratio(1000*uint64(all.gcs), all.items), "count"},
		{"runtime.gc_pause_ms", float64(all.pauseNS) / 1e6, "ms"},
		{"runtime.heap_live_peak_mb", float64(b.tr.heapPeak) / (1 << 20), "MB"},
	}...)
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the metric lines, the run record and the result line.
func (r result) print(w io.Writer) error {
	final := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{r.correct, r.attempted, r.failed, make(map[string]valueUnit, len(r.metrics))}
	var buf bytes.Buffer
	for _, m := range r.metrics {
		fmt.Fprintf(&buf, "%s %s %s\n", m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
		final.Metrics[m.name] = valueUnit{m.value, m.unit}
	}
	for _, line := range []any{r.info, final} {
		data, err := json.Marshal(line)
		if err != nil {
			return err
		}
		buf.Write(data)
		buf.WriteByte('\n')
	}
	_, err := w.Write(buf.Bytes())
	return err
}
