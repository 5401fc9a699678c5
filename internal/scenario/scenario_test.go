package scenario

import (
	"context"
	"errors"
	"strings"
	"testing"

	"headerbid/internal/analysis"
	"headerbid/internal/crawler"
	"headerbid/internal/overlay"
	"headerbid/internal/sitegen"
)

func testWorld(t testing.TB, sites int, seed int64) *sitegen.World {
	t.Helper()
	cfg := sitegen.DefaultConfig(seed)
	cfg.NumSites = sites
	return sitegen.Generate(cfg)
}

func TestAxisConstructors(t *testing.T) {
	ax := TimeoutAxis()
	if ax.Name != "timeout" || len(ax.Variants) != len(DefaultTimeoutsMS) {
		t.Errorf("TimeoutAxis() = %q/%d variants", ax.Name, len(ax.Variants))
	}
	if got := TimeoutAxis(700).Variants[0]; got.Name != "timeout=700ms" || got.Overlay.TimeoutMS != 700 {
		t.Errorf("TimeoutAxis(700) variant = %+v", got)
	}
	if got := PartnerAxis(3).Variants[0]; got.Name != "partners<=3" || got.Overlay.MaxPartners != 3 {
		t.Errorf("PartnerAxis(3) variant = %+v", got)
	}
	netAx := NetworkAxis()
	if len(netAx.Variants) != len(overlay.Profiles()) {
		t.Errorf("NetworkAxis() has %d variants, want %d", len(netAx.Variants), len(overlay.Profiles()))
	}
	for _, v := range netAx.Variants {
		if v.Overlay.Network == nil {
			t.Errorf("network variant %s has nil profile", v.Name)
		}
	}
	if got := SyncAxis().Variants[0]; !got.Overlay.DisableSync {
		t.Errorf("SyncAxis variant = %+v", got)
	}
	if got := WrapperAxis().Variants[0]; !got.Overlay.FixBadWrappers {
		t.Errorf("WrapperAxis variant = %+v", got)
	}
	axes := DefaultAxes()
	if len(axes) != 3 {
		t.Fatalf("DefaultAxes: %d axes, want 3", len(axes))
	}
	want := 1 + len(DefaultTimeoutsMS) + len(DefaultPartnerCaps) + len(overlay.Profiles())
	if got := VariantCount(axes); got != want {
		t.Errorf("VariantCount = %d, want %d", got, want)
	}
}

// The headline acceptance property: as the wrapper deadline grows, the
// late-bid rate never increases. Per-bid arrival times are decided
// before the deadline fires (service and RTT draws are independent of
// TMax up to the forced-late path, which always misses the deadline by
// construction), so the late set can only shrink as the deadline moves
// out.
func TestTimeoutAxisLateBidRateMonotone(t *testing.T) {
	w := testWorld(t, 500, 3)
	sw := &Sweep{
		World: w,
		Opts:  crawler.DefaultOptions(3),
		Axes:  []Axis{TimeoutAxis(500, 1500, 3000, 8000)},
	}
	cmp, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ax := &cmp.Axes[0]
	if ax.Axis != "timeout" || len(ax.Variants) != 4 {
		t.Fatalf("timeout axis missing or wrong size: %+v", ax)
	}
	if ax.Variants[0].Bids == 0 {
		t.Fatal("no observable bids at 500ms; world too small for the test")
	}
	prev := 2.0
	for _, v := range ax.Variants {
		rate := v.LateBidRate()
		if rate > prev+1e-12 {
			t.Errorf("late-bid rate increased along the timeout axis: %s has %.4f after %.4f",
				v.Name, rate, prev)
		}
		prev = rate
	}
	// And the ladder must actually move: the 500ms rate must exceed the
	// 8s rate (the paper's late-bid phenomenon is timeout-sensitive).
	if first, last := ax.Variants[0].LateBidRate(), ax.Variants[3].LateBidRate(); first <= last {
		t.Errorf("timeout ladder flat: late rate %.4f at 500ms vs %.4f at 8s", first, last)
	}
}

func TestPartnerAblationCutsReach(t *testing.T) {
	w := testWorld(t, 500, 3)
	sw := &Sweep{
		World: w,
		Opts:  crawler.DefaultOptions(3),
		Axes:  []Axis{PartnerAxis(1)},
	}
	cmp, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	base, v := cmp.Baseline, cmp.Axes[0].Variants[0]
	if v.PartnersReached >= base.PartnersReached {
		t.Errorf("partners<=1 reach %d not below baseline %d", v.PartnersReached, base.PartnersReached)
	}
	if v.MeanPartnersPerHBSite >= base.MeanPartnersPerHBSite {
		t.Errorf("partners<=1 mean pool %.2f not below baseline %.2f",
			v.MeanPartnersPerHBSite, base.MeanPartnersPerHBSite)
	}
	// Adoption itself is untouched — ablation trims demand, not HB.
	if v.Summary.SitesWithHB != base.Summary.SitesWithHB {
		t.Errorf("ablation changed HB site count: %d vs %d", v.Summary.SitesWithHB, base.Summary.SitesWithHB)
	}
}

func TestNetworkAxisShiftsLatency(t *testing.T) {
	fiber, _ := overlay.ProfileByName("fiber")
	slow, _ := overlay.ProfileByName("3g")
	w := testWorld(t, 400, 5)
	sw := &Sweep{
		World: w,
		Opts:  crawler.DefaultOptions(5),
		Axes:  []Axis{NetworkAxis(fiber, slow)},
	}
	cmp, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	vf, vs := cmp.Axes[0].Variants[0], cmp.Axes[0].Variants[1]
	if !(vf.LatencyMedianMS < cmp.Baseline.LatencyMedianMS && cmp.Baseline.LatencyMedianMS < vs.LatencyMedianMS) {
		t.Errorf("median HB latency not ordered fiber(%.0f) < baseline(%.0f) < 3g(%.0f)",
			vf.LatencyMedianMS, cmp.Baseline.LatencyMedianMS, vs.LatencyMedianMS)
	}
}

func TestSyncAxisCutsBeacons(t *testing.T) {
	w := testWorld(t, 400, 5)
	sw := &Sweep{
		World: w,
		Opts:  crawler.DefaultOptions(5),
		Axes:  []Axis{SyncAxis()},
	}
	cmp, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	v := cmp.Axes[0].Variants[0]
	if v.Beacons >= cmp.Baseline.Beacons/2 {
		t.Errorf("sync-off beacons %d not well below baseline %d", v.Beacons, cmp.Baseline.Beacons)
	}
	if v.Requests >= cmp.Baseline.Requests {
		t.Errorf("sync-off total requests %d not below baseline %d", v.Requests, cmp.Baseline.Requests)
	}
}

func TestSweepExtraMetrics(t *testing.T) {
	w := testWorld(t, 300, 1)
	sw := &Sweep{
		World:   w,
		Opts:    crawler.DefaultOptions(1),
		Axes:    []Axis{SyncAxis()},
		Metrics: func() []analysis.Metric { return []analysis.Metric{analysis.NewLateBids()} },
	}
	cmp, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	all := cmp.Variants()
	if len(all) != 2 {
		t.Fatalf("got %d variants", len(all))
	}
	seen := map[analysis.Metric]bool{}
	for _, v := range all {
		if len(v.Extra) != 1 {
			t.Fatalf("variant %s has %d extra metrics, want 1", v.Name, len(v.Extra))
		}
		lb, ok := v.Extra[0].(*analysis.LateBidsMetric)
		if !ok {
			t.Fatalf("variant %s extra metric is %T", v.Name, v.Extra[0])
		}
		if seen[lb] {
			t.Error("variants share an extra metric instance")
		}
		seen[lb] = true
		if lb.Result().TotalAuctions == 0 {
			t.Errorf("variant %s extra metric saw no auctions", v.Name)
		}
	}
}

// An emit failure must surface as itself even when it strikes a
// late-scheduled variant: cancelled siblings earlier in spec order
// record context.Canceled, which must never mask the real error (the
// CLI distinguishes Ctrl-C from sink failures by errors.Is).
func TestSweepEmitErrorAborts(t *testing.T) {
	w := testWorld(t, 300, 1)
	boom := errors.New("boom")
	sw := &Sweep{
		World:       w,
		Opts:        crawler.DefaultOptions(1),
		Axes:        []Axis{TimeoutAxis(1000, 2000)},
		Concurrency: 3,
		Emit: func(axis, variant string, v crawler.Visit) error {
			if variant == "timeout=2000ms" && v.Done >= 5 {
				return boom
			}
			return nil
		},
	}
	_, err := sw.Run(context.Background())
	if !errors.Is(err, boom) {
		t.Fatalf("want emit error, got %v", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("emit error masked by sibling cancellation: %v", err)
	}
}

func TestSweepCancellation(t *testing.T) {
	w := testWorld(t, 300, 1)
	ctx, cancel := context.WithCancel(context.Background())
	sw := &Sweep{
		World: w,
		Opts:  crawler.DefaultOptions(1),
		Axes:  []Axis{TimeoutAxis(1000, 2000)},
		Emit: func(axis, variant string, v crawler.Visit) error {
			if v.Done >= 5 {
				cancel()
			}
			return nil
		},
	}
	if _, err := sw.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestSweepRejectsBaseOverlay(t *testing.T) {
	w := testWorld(t, 10, 1)
	opts := crawler.DefaultOptions(1)
	opts.Overlay = &overlay.Overlay{TimeoutMS: 100}
	if _, err := (&Sweep{World: w, Opts: opts}).Run(context.Background()); err == nil {
		t.Fatal("want error for non-nil base overlay")
	}
	if _, err := (&Sweep{Opts: crawler.DefaultOptions(1)}).Run(context.Background()); err == nil {
		t.Fatal("want error for missing world")
	}
}

// TestUnknownFaultTargetFailsSweep: a partner-fault axis naming a slug
// the registry does not know fails the sweep with the slug named, rather
// than rendering a fault-free row under the faulted variant's label.
func TestUnknownFaultTargetFailsSweep(t *testing.T) {
	w := testWorld(t, 60, 1)
	sw := &Sweep{
		World: w,
		Opts:  crawler.DefaultOptions(1),
		Axes:  []Axis{PartnerFaultAxis("nosuchpartner", 0.5)},
	}
	cmp, err := sw.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), `"nosuchpartner"`) {
		t.Fatalf("err = %v, want an error naming \"nosuchpartner\"", err)
	}
	if cmp != nil {
		t.Fatal("failed sweep returned a comparison")
	}
}
