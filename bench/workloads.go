package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"headerbid"
)

// size is a workload's amount of work. Rounds are equal slices of the
// measured phase; set-ups are repeated so setup_s is a median.
type size struct {
	sites  int // world size
	rounds int // worlds (census, chaos), revisit days or read passes (replay)
	setups int // set-up repetitions (census and chaos: per round)
	days   int // replay: crawl days written at set-up
	shards int // replay: shard count of the set-up crawl
}

type workload struct {
	name string
	run  func(context.Context, *bench, size) error
	size size // at the nominal run length
}

// workloads are the benchmark's inputs; each is driven only by -seed.
// README.md gives the reason for each.
var workloads = []workload{
	{"census", census, size{sites: 35000, rounds: 6, setups: 3}},
	{"revisit", revisit, size{sites: 35000, rounds: 14, setups: 3}},
	{"chaos", chaos, size{sites: 6000, rounds: 6, setups: 3}},
	{"replay", replay, size{sites: 20000, rounds: 20, setups: 3, days: 3, shards: 4}},
}

// nominalSeconds is the measured time the workload sizes above are set
// for, on the reference host alone (one crawl worker on a 2.1 GHz
// Xeon); -seconds scales the round count.
const nominalSeconds = 10

func (s size) scaled(seconds int) size {
	s.rounds = max(3, (s.rounds*seconds+nominalSeconds/2)/nominalSeconds)
	return s
}

// hashWriter digests and counts whatever is written to it.
type hashWriter struct {
	h hash.Hash
	n int64
}

func newHashWriter() *hashWriter { return &hashWriter{h: sha256.New()} }

func (w *hashWriter) Write(p []byte) (int, error) {
	w.h.Write(p)
	w.n += int64(len(p))
	return len(p), nil
}

func (w *hashWriter) sum() string { return hex.EncodeToString(w.h.Sum(nil)) }

func digestOf(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// jsonlDigest is a JSONL dataset written into SHA-256 instead of a file.
type jsonlDigest struct {
	*headerbid.JSONLSink
	w *hashWriter
}

func newJSONLDigest() jsonlDigest {
	w := newHashWriter()
	return jsonlDigest{JSONLSink: headerbid.NewJSONLSink(w), w: w}
}

// streamCheck verifies the ordered stream: days ascending, ranks
// ascending within a day, and counts records.
type streamCheck struct {
	records, quarantined, disorder int
	day, rank                      int
}

func newStreamCheck() *streamCheck { return &streamCheck{day: -1} }

func (c *streamCheck) Consume(v headerbid.Visit) error {
	if v.Day < c.day || v.Day == c.day && v.Record.Rank <= c.rank {
		c.disorder++
	}
	c.day, c.rank = v.Day, v.Record.Rank
	c.records++
	if v.Record.Quarantined {
		c.quarantined++
	}
	return nil
}

func (c *streamCheck) Close() error { return nil }

func (b *bench) checkStream(what string, c *streamCheck, want int) {
	b.check(c.disorder == 0, "%s: %d records out of crawl order", what, c.disorder)
	b.check(c.records == want, "%s: %d records, want %d", what, c.records, want)
}

// census crawls fresh worlds, one per round: world generation is the
// set-up, the day-0 crawl with the figure report plus its rendering is
// the round.
func census(ctx context.Context, b *bench, sz size) error {
	if err := b.phaseStart(); err != nil {
		return err
	}
	for i := 0; i < sz.rounds; i++ {
		seed := b.seed + int64(i)
		w := b.setUpWorld(seed, sz.sites, sz.setups)

		fr := headerbid.NewFigureReport()
		out, chk, reg := newJSONLDigest(), newStreamCheck(), headerbid.NewTelemetry()
		p, m := b.probe(fr)
		exp := headerbid.NewExperiment(
			headerbid.WithWorld(w),
			headerbid.WithSeed(seed),
			headerbid.WithWorkers(b.workers),
			headerbid.WithTelemetry(reg),
			headerbid.WithMetrics(m),
			headerbid.WithSink(b.timed(out), chk),
		)
		if err := b.segmentStart(); err != nil {
			return err
		}
		if err := b.begin(); err != nil {
			return err
		}
		res, err := exp.Run(ctx)
		if err != nil {
			return fmt.Errorf("census world %d: %w", seed, err)
		}
		rep := b.render(fr)
		if err := b.end(res.Stats.Visits); err != nil {
			return err
		}
		if err := b.segmentEnd(); err != nil {
			return err
		}
		b.tr.collect(p)
		if b.lastTraced() {
			b.addWire(reg.Totals(), headerbid.TelemetryTotals{})
		}

		what := fmt.Sprintf("census world %d", seed)
		b.checkStream(what, chk, sz.sites)
		b.check(res.Stats.Visits == sz.sites, "%s: %d visits, want %d", what, res.Stats.Visits, sz.sites)
		b.check(fr.Summary() == res.Summary, "%s: figure-report summary %+v differs from run summary %+v", what, fr.Summary(), res.Summary)
		b.count(sz.sites, chk.records, chk.quarantined)
		b.jsonlBytes += out.w.n
		b.jsonlRecords += int64(out.Count())
		b.digest(what+" jsonl", out.w.sum())
		b.digest(what+" report", digestOf(rep))
	}
	return b.phaseEnd()
}

// revisit crawls one world for 1+rounds days. World generation plus the
// day-0 discovery crawl is the set-up; every later day is one round,
// closed at the day boundary by dayClock.
func revisit(ctx context.Context, b *bench, sz size) error {
	// Extra set-ups: generation plus a day-0 crawl, whose dataset must
	// match the measured run's day 0 byte for byte.
	var setupSums []string
	for i := 1; i < sz.setups; i++ {
		runtime.GC()
		start := wallNow()
		w, _ := b.generate(b.seed, sz.sites)
		out := newJSONLDigest()
		_, err := headerbid.NewExperiment(
			headerbid.WithWorld(w),
			headerbid.WithSeed(b.seed),
			headerbid.WithWorkers(b.workers),
			headerbid.WithTelemetry(headerbid.NewTelemetry()),
			headerbid.WithMetrics(headerbid.NewFigureReport()),
			headerbid.WithSink(out),
		).Run(ctx)
		if err != nil {
			return fmt.Errorf("revisit set-up: %w", err)
		}
		b.setUpSince(start)
		setupSums = append(setupSums, out.w.sum())
	}

	runtime.GC()
	start := wallNow()
	w, _ := b.generate(b.seed, sz.sites)
	fr := headerbid.NewFigureReport()
	day0, rest, chk, reg := newJSONLDigest(), newJSONLDigest(), newStreamCheck(), headerbid.NewTelemetry()
	clock := &dayClock{b: b, start: start, last: sz.rounds, day0: day0, reg: reg}
	route := headerbid.SinkFunc(func(v headerbid.Visit) error {
		if v.Day == 0 {
			return day0.Consume(v)
		}
		return rest.Consume(v)
	})
	p, m := b.probe(fr)
	res, err := headerbid.NewExperiment(
		headerbid.WithWorld(w),
		headerbid.WithSeed(b.seed),
		headerbid.WithDays(sz.rounds+1),
		headerbid.WithWorkers(b.workers),
		headerbid.WithTelemetry(reg),
		headerbid.WithMetrics(m),
		headerbid.WithSink(b.timed(route), chk, clock),
	).Run(ctx)
	if err != nil {
		return fmt.Errorf("revisit: %w", err)
	}
	if err := rest.Close(); err != nil {
		return err
	}
	rep := b.render(fr)
	if err := clock.closeDay(clock.total); err != nil {
		return err
	}
	if err := b.segmentEnd(); err != nil {
		return err
	}
	b.tr.collect(p)
	if err := b.phaseEnd(); err != nil {
		return err
	}

	want := sz.sites + sz.rounds*clock.hb0
	b.checkStream("revisit", chk, want)
	b.check(clock.hb0 > 0, "revisit: no HB site found on day 0")
	b.check(clock.days == sz.rounds+1, "revisit: %d crawl days, want %d", clock.days, sz.rounds+1)
	b.check(clock.badTotals == 0, "revisit: %d revisit days did not visit exactly the %d day-0 HB sites", clock.badTotals, clock.hb0)
	b.check(fr.Summary() == res.Summary, "revisit: figure-report summary %+v differs from run summary %+v", fr.Summary(), res.Summary)
	b.count(sz.rounds*clock.hb0, chk.records-sz.sites, chk.quarantined)
	b.jsonlBytes += rest.w.n
	b.jsonlRecords += int64(rest.Count())
	for i, sum := range setupSums {
		b.check(sum == clock.day0Sum, "revisit: set-up %d day-0 dataset differs from the measured run's", i+1)
	}
	b.digest("revisit day-0 jsonl", clock.day0Sum)
	b.digest("revisit days 1+ jsonl", rest.w.sum())
	b.digest("revisit report", digestOf(rep))
	return nil
}

// dayClock is the last sink of the revisit run. At the end of day 0 it
// records the set-up time and opens the measured phase; at every later
// day boundary it closes one round and opens the next.
type dayClock struct {
	b     *bench
	start time.Time
	last  int // final crawl day
	day0  jsonlDigest
	reg   *headerbid.Telemetry

	hb0       int // HB sites found on day 0
	days      int
	total     int // visits of the open day
	badTotals int
	day0Sum   string
	wire      headerbid.TelemetryTotals // at the open round's start
}

func (c *dayClock) Consume(v headerbid.Visit) error {
	if v.Day == 0 && v.Record.HB {
		c.hb0++
	}
	if v.Done != v.Total {
		return nil
	}
	c.days++
	if v.Day > 0 && v.Total != c.hb0 {
		c.badTotals++
	}
	c.total = v.Total
	switch {
	case v.Day == 0:
		c.b.setUpSince(c.start)
		if err := c.day0.Close(); err != nil {
			return err
		}
		c.day0Sum = c.day0.w.sum()
		if err := c.b.phaseStart(); err != nil {
			return err
		}
		if err := c.b.segmentStart(); err != nil {
			return err
		}
		c.wire = c.reg.Totals()
		return c.b.begin()
	case v.Day < c.last:
		if err := c.closeDay(v.Total); err != nil {
			return err
		}
		return c.b.begin()
	}
	return nil
}

// closeDay ends the open round and charges its telemetry to the trace.
func (c *dayClock) closeDay(visits int) error {
	if err := c.b.end(visits); err != nil {
		return err
	}
	now := c.reg.Totals()
	if c.b.lastTraced() {
		c.b.addWire(now, c.wire)
	}
	c.wire = now
	return nil
}

func (c *dayClock) Close() error { return nil }

// chaos sweeps fresh worlds, one per round, over their HB sites:
// baseline, two transport-failure rates and every chaos shape.
func chaos(ctx context.Context, b *bench, sz size) error {
	if err := b.phaseStart(); err != nil {
		return err
	}
	for i := 0; i < sz.rounds; i++ {
		seed := b.seed + int64(i)
		w := b.setUpWorld(seed, sz.sites, sz.setups)
		hbSites := 0
		for _, s := range w.Sites {
			if s.HB {
				hbSites++
			}
		}

		reg := headerbid.NewTelemetry()
		cfg := headerbid.DefaultCrawlConfig(seed)
		cfg.Filter = func(s *headerbid.Site) bool { return s.HB }
		cfg.Telemetry = reg
		out := &variantDigests{tr: b.tr, sinks: make(map[string]jsonlDigest)}
		opts := []headerbid.SweepOption{
			headerbid.WithSweepWorld(w),
			headerbid.WithSweepSeed(seed),
			headerbid.WithSweepCrawlConfig(cfg),
			headerbid.WithSweepWorkers(b.workers),
			headerbid.WithVariantConcurrency(1),
			headerbid.WithAxes(headerbid.FaultAxis(0.2, 0.5), headerbid.ChaosAxis()),
			headerbid.WithSweepSink(out),
		}
		if b.tr != nil {
			opts = append(opts, headerbid.WithVariantMetrics(func() []headerbid.Metric {
				return []headerbid.Metric{b.tr.newProbe(nil)}
			}))
		}
		if err := b.segmentStart(); err != nil {
			return err
		}
		if err := b.begin(); err != nil {
			return err
		}
		cmp, err := headerbid.NewSweep(opts...).Run(ctx)
		if err != nil {
			return fmt.Errorf("chaos world %d: %w", seed, err)
		}
		variants := cmp.Variants()
		visits := 0
		for _, v := range variants {
			visits += v.Stats.Visits
		}
		if err := b.end(visits); err != nil {
			return err
		}
		if err := b.segmentEnd(); err != nil {
			return err
		}

		what := fmt.Sprintf("chaos world %d", seed)
		sum := sha256.New()
		quarantined := 0
		for _, v := range variants {
			name := v.Axis + "/" + v.Name
			b.variantS = append(b.variantS, v.Elapsed.Seconds())
			if len(v.Extra) == 1 {
				p, _ := v.Extra[0].(*probe)
				b.tr.collect(p)
			}
			d, ok := out.sinks[name]
			if !ok {
				b.check(false, "%s: variant %s emitted nothing", what, name)
				continue
			}
			if err := d.Close(); err != nil {
				return err
			}
			fmt.Fprintf(sum, "%s %s\n", name, d.w.sum())
			b.check(d.Count() == v.Stats.Visits, "%s %s: %d records emitted, %d visits", what, name, d.Count(), v.Stats.Visits)
			b.check(v.Stats.Visits == hbSites, "%s %s: %d visits, want %d HB sites", what, name, v.Stats.Visits, hbSites)
			switch {
			case v.Axis == "baseline":
				b.check(v.BidErrors == 0, "%s: baseline has %d bid errors", what, v.BidErrors)
			case v.Axis == cmp.Axes[0].Axis:
				b.check(v.BidErrors > 0, "%s %s: no bid errors injected", what, name)
			}
			quarantined += v.Quarantined
			b.jsonlBytes += d.w.n
			b.jsonlRecords += int64(d.Count())
		}
		b.check(len(out.sinks) == len(variants), "%s: %d variant streams for %d variants", what, len(out.sinks), len(variants))
		if b.lastTraced() {
			b.addWire(reg.Totals(), headerbid.TelemetryTotals{})
		}
		b.count(len(variants)*hbSites, visits, quarantined)
		b.digest(what+" variants jsonl", hex.EncodeToString(sum.Sum(nil)))
	}
	return b.phaseEnd()
}

// variantDigests keeps one JSONL digest per sweep variant. Variants
// emit concurrently, so a single stream digest would depend on
// scheduling; per-variant digests combined in axis order do not.
type variantDigests struct {
	tr    *tracer
	sinks map[string]jsonlDigest
}

func (s *variantDigests) Consume(v headerbid.SweepVisit) error {
	key := v.Axis + "/" + v.Variant
	d, ok := s.sinks[key]
	if !ok {
		d = newJSONLDigest()
		s.sinks[key] = d
	}
	start := s.tr.emitBegin(v.Visit.Record)
	err := d.Consume(v.Visit)
	s.tr.emitEnd(start)
	return err
}

func (s *variantDigests) Close() error { return nil }

// replayFiles is what the replay set-up leaves on disk.
type replayFiles struct {
	jsonl, shards []string
	records       int
}

// replay reads back a sharded multi-day crawl: each round folds the
// JSONL files into a figure report (the hbreport path) and folds the
// shard files (the hbmerge -merge-out path), and the two reports must
// be identical.
func replay(ctx context.Context, b *bench, sz size) error {
	dir, err := os.MkdirTemp("", "hbbench-replay-")
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	defer os.RemoveAll(dir)

	var files replayFiles
	var first string
	for i := 0; i < max(sz.setups, 1); i++ {
		runtime.GC()
		start := wallNow()
		var sum string
		files, sum, err = replaySetup(ctx, b, sz, dir)
		if err != nil {
			return err
		}
		b.setUpSince(start)
		if i == 0 {
			first = sum
			b.digest("replay set-up jsonl", sum)
		}
		b.check(sum == first, "replay: set-up %d wrote different JSONL files than set-up 0", i)
	}

	if err := b.phaseStart(); err != nil {
		return err
	}
	var report, state string
	for i := 0; i < sz.rounds; i++ {
		if err := b.segmentStart(); err != nil {
			return err
		}
		if err := b.begin(); err != nil {
			return err
		}
		fromJSONL, n, err := b.replayJSONL(files.jsonl)
		if err != nil {
			return err
		}
		fromShards, merged, err := b.replayShards(files.shards)
		if err != nil {
			return err
		}
		if err := b.end(n); err != nil {
			return err
		}
		if err := b.segmentEnd(); err != nil {
			return err
		}
		b.check(bytes.Equal(fromJSONL, fromShards), "replay round %d: JSONL report (%d bytes) differs from shard-fold report (%d bytes)", i, len(fromJSONL), len(fromShards))
		b.check(n == files.records, "replay round %d: read %d records, set-up wrote %d", i, n, files.records)
		b.count(files.records, n, 0)
		if i == 0 {
			report, state = digestOf(fromJSONL), merged
		}
		b.check(digestOf(fromJSONL) == report && merged == state, "replay round %d: output differs from round 0", i)
	}
	b.digest("replay report", report)
	return b.phaseEnd()
}

// replaySetup crawls the world as sz.shards shard runs, like
// `hbcrawl -shard i/n -o shard.jsonl -shard-out shard.hbs`, and returns
// the files and a digest of the JSONL ones. Shard-file bytes are not
// digested: they differ from run to run (see README.md).
func replaySetup(ctx context.Context, b *bench, sz size, dir string) (replayFiles, string, error) {
	var files replayFiles
	all := sha256.New()
	var genMS float64
	for i := 0; i < sz.shards; i++ {
		fr, deg := headerbid.NewFigureReport(), headerbid.NewDegradation()
		jsonlPath := filepath.Join(dir, fmt.Sprintf("shard%d.jsonl", i))
		f, err := os.Create(jsonlPath)
		if err != nil {
			return files, "", fmt.Errorf("replay set-up: %w", err)
		}
		hw := newHashWriter()
		sink := headerbid.NewJSONLSink(io.MultiWriter(f, hw))
		exp := headerbid.NewExperiment(
			headerbid.WithSites(sz.sites),
			headerbid.WithSeed(b.seed),
			headerbid.WithDays(sz.days),
			headerbid.WithShard(i, sz.shards),
			headerbid.WithWorkers(b.workers),
			headerbid.WithTelemetry(headerbid.NewTelemetry()),
			headerbid.WithSink(sink),
			headerbid.WithMetrics(fr, deg),
		)
		start := wallNow()
		exp.World()
		genMS += ms(wallNow().Sub(start))
		_, err = exp.Run(ctx)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return files, "", fmt.Errorf("replay set-up shard %d/%d: %w", i, sz.shards, err)
		}
		files.records += sink.Count()

		var state bytes.Buffer
		h := headerbid.ShardHeader{Seed: b.seed, ShardCount: sz.shards, Shards: []int{i}}
		if err := headerbid.MarshalShard(&state, h, []headerbid.MetricCodec{fr, deg}); err != nil {
			return files, "", fmt.Errorf("replay set-up shard %d/%d: %w", i, sz.shards, err)
		}
		shardPath := filepath.Join(dir, fmt.Sprintf("shard%d.hbs", i))
		if err := os.WriteFile(shardPath, state.Bytes(), 0o644); err != nil {
			return files, "", fmt.Errorf("replay set-up: %w", err)
		}
		files.jsonl = append(files.jsonl, jsonlPath)
		files.shards = append(files.shards, shardPath)
		fmt.Fprintf(all, "%s\n", hw.sum())
	}
	b.genMSPerKSite = append(b.genMSPerKSite, genMS/(float64(sz.sites)/1000))
	return files, hex.EncodeToString(all.Sum(nil)), nil
}

// replayJSONL folds the JSONL files into a fresh figure report and
// renders it; it returns the report and the records read.
func (b *bench) replayJSONL(paths []string) ([]byte, int, error) {
	fr := headerbid.NewFigureReport()
	traced := b.tr != nil && b.tr.on.Load()
	n := 0
	var fold time.Duration
	add := func(r *headerbid.SiteRecord) error {
		n++
		if !traced {
			fr.Add(r)
			return nil
		}
		start := wallNow()
		fr.Add(r)
		fold += wallNow().Sub(start)
		return nil
	}
	start := wallNow()
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, 0, fmt.Errorf("replay: %w", err)
		}
		err = headerbid.ReadDatasetStream(f, add)
		f.Close()
		if err != nil {
			return nil, 0, fmt.Errorf("replay %s: %w", filepath.Base(path), err)
		}
	}
	if traced {
		b.decodeNS += int64(wallNow().Sub(start) - fold)
		b.decoded += n
		b.tr.visits.foldNS += int64(fold)
		b.tr.visits.folds += n
	}
	return b.render(fr), n, nil
}

// replayShards folds the shard files, renders the merged figure report
// and marshals the merged state; it returns the report and the state's
// digest.
func (b *bench) replayShards(paths []string) ([]byte, string, error) {
	var fold headerbid.ShardFold
	var unmarshal, merge time.Duration
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, "", fmt.Errorf("replay: %w", err)
		}
		b.shardKB = append(b.shardKB, float64(len(data))/1024)
		start := wallNow()
		h, ms, err := headerbid.UnmarshalShard(bytes.NewReader(data))
		mid := wallNow()
		if err == nil {
			err = fold.Add(h, ms)
		}
		unmarshal += mid.Sub(start)
		merge += wallNow().Sub(mid)
		if err != nil {
			return nil, "", fmt.Errorf("replay %s: %w", filepath.Base(path), err)
		}
	}
	b.unmarshalMS = append(b.unmarshalMS, ms(unmarshal))
	b.foldMS = append(b.foldMS, ms(merge))
	if !fold.Complete() {
		return nil, "", fmt.Errorf("replay: shard fold incomplete, missing %v", fold.Missing())
	}
	m, ok := fold.Get("figure_report")
	if !ok {
		return nil, "", fmt.Errorf("replay: shard files carry no figure_report")
	}
	fr, ok := m.(*headerbid.FigureReport)
	if !ok {
		return nil, "", fmt.Errorf("replay: figure_report is a %T", m)
	}
	rep := b.render(fr)
	start := wallNow()
	hw := newHashWriter()
	if err := headerbid.MarshalShard(hw, fold.Header(), fold.Metrics()); err != nil {
		return nil, "", fmt.Errorf("replay: marshal merged state: %w", err)
	}
	b.marshalMS = append(b.marshalMS, ms(wallNow().Sub(start)))
	return rep, hw.sum(), nil
}
