package usersync

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"headerbid/internal/clock"
	"headerbid/internal/partners"
	"headerbid/internal/webreq"
)

type fakeEnv struct {
	sched   *clock.Scheduler
	fetched []string
}

func (f *fakeEnv) Now() time.Time              { return f.sched.Now() }
func (f *fakeEnv) NewRequest() *webreq.Request { return new(webreq.Request) }
func (f *fakeEnv) FetchCall(req *webreq.Request, fn func(*webreq.Response, any), arg any) {
	f.fetched = append(f.fetched, req.URL)
	f.sched.After(5*time.Millisecond, func() {
		fn(&webreq.Response{RequestID: req.ID, Status: 204, Received: f.sched.Now()}, arg)
	})
}

func run(t *testing.T, cfg Config, seed int64) (*Result, *fakeEnv) {
	t.Helper()
	env := &fakeEnv{sched: clock.NewScheduler(time.Time{})}
	s := new(Syncer)
	s.Reset(env, partners.Default(), cfg, seed)
	var res *Result
	s.Run(func(r *Result) { res = r })
	env.sched.Run()
	if res == nil {
		t.Fatal("sync never completed")
	}
	return res, env
}

func TestSyncFiresPixels(t *testing.T) {
	cfg := DefaultConfig("pub.example", []string{"appnexus", "rubicon", "criteo"})
	cfg.SyncProb = 1
	cfg.ChainProb = 0
	res, env := run(t, cfg, 1)
	if res.PixelsFired != 3 {
		t.Fatalf("pixels = %d, want 3", res.PixelsFired)
	}
	for _, u := range env.fetched {
		if !strings.Contains(u, "/pixel") || !strings.Contains(u, "uid=") {
			t.Fatalf("malformed sync pixel %q", u)
		}
	}
}

func TestSyncChains(t *testing.T) {
	cfg := DefaultConfig("pub.example", []string{"appnexus"})
	cfg.SyncProb = 1
	cfg.ChainProb = 1
	cfg.MaxChain = 2
	res, env := run(t, cfg, 2)
	if res.Chained != 2 {
		t.Fatalf("chained = %d, want exactly MaxChain", res.Chained)
	}
	if res.PixelsFired != 3 { // origin + 2 hops
		t.Fatalf("pixels = %d", res.PixelsFired)
	}
	// Chain hops hit partners beyond the configured one.
	others := 0
	for _, u := range env.fetched {
		if !strings.Contains(u, "adnxs.com") {
			others++
		}
	}
	if others != 2 {
		t.Fatalf("chain targets = %d", others)
	}
}

func TestSyncProbZero(t *testing.T) {
	cfg := DefaultConfig("pub.example", []string{"appnexus", "rubicon"})
	cfg.SyncProb = 0
	res, env := run(t, cfg, 3)
	if res.PixelsFired != 0 || len(env.fetched) != 0 {
		t.Fatalf("pixels fired with prob 0: %+v", res)
	}
}

func TestSyncUnknownPartnerSkipped(t *testing.T) {
	cfg := DefaultConfig("pub.example", []string{"no-such-partner"})
	cfg.SyncProb = 1
	res, env := run(t, cfg, 4)
	if res.PixelsFired != 0 || len(env.fetched) != 0 {
		t.Fatal("pixel fired for unknown partner")
	}
}

func TestSyncDeterministic(t *testing.T) {
	cfg := DefaultConfig("pub.example", []string{"appnexus", "rubicon", "ix", "openx"})
	a, _ := run(t, cfg, 7)
	b, _ := run(t, cfg, 7)
	if a.PixelsFired != b.PixelsFired || a.Chained != b.Chained {
		t.Fatalf("sync not deterministic: %+v vs %+v", a, b)
	}
}

// TestSyncUIDMatchesSprintf pins the uid to its %08x wire form.
func TestSyncUIDMatchesSprintf(t *testing.T) {
	for _, v := range []uint32{0, 1, 0xabc, 0x89abcdef, 0xffffffff} {
		if got, want := string(appendSyncUID(nil, v)), fmt.Sprintf("sim-%08x", v); got != want {
			t.Errorf("appendSyncUID(%#x) = %q, want %q", v, got, want)
		}
	}
}
