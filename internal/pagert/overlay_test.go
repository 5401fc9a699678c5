package pagert

import (
	"reflect"
	"testing"
	"time"

	"headerbid/internal/overlay"
	"headerbid/internal/prebid"
)

func overlayTestConfig() *PageConfig {
	return &PageConfig{
		Site:      "site00001.example",
		Facet:     "client",
		TimeoutMS: 3000,
		AdUnits: []prebid.AdUnit{
			{Code: "a", Bidders: []string{"appnexus", "criteo", "rubicon"}},
			{Code: "b", Bidders: []string{"criteo", "openx"}},
		},
	}
}

func TestOverlayConfigZeroIsIdentity(t *testing.T) {
	cfg := overlayTestConfig()
	if got := OverlayConfig(cfg, nil); got != cfg {
		t.Error("nil overlay must return the config untouched")
	}
	if got := OverlayConfig(cfg, &overlay.Overlay{}); got != cfg {
		t.Error("zero overlay must return the config untouched")
	}
	// Overlays without a wrapper intervention never change the config,
	// so they must not pay for a copy on every HB visit either.
	for _, ov := range []*overlay.Overlay{
		{Faults: []overlay.Fault{{Partner: "*", FailProb: 0.5}}},
		{Network: &overlay.NetworkProfile{Name: "3g", BaseRTT: 180 * time.Millisecond}},
		{DisableSync: true},
	} {
		if got := OverlayConfig(cfg, ov); got != cfg {
			t.Errorf("overlay %+v copied the config", *ov)
		}
	}
}

// Cached PageConfigs are shared across visits and worlds; overlays must
// clone, never write through.
func TestOverlayConfigNeverMutatesShared(t *testing.T) {
	cfg := overlayTestConfig()
	want := overlayTestConfig() // independent deep copy for comparison

	ov := &overlay.Overlay{TimeoutMS: 700, MaxPartners: 2, FixBadWrappers: true}
	got := OverlayConfig(cfg, ov)
	if got == cfg {
		t.Fatal("overlay with interventions must return a copy")
	}
	if !reflect.DeepEqual(cfg, want) {
		t.Fatalf("shared config mutated:\n got %+v\nwant %+v", cfg, want)
	}
	if got.TimeoutMS != 700 {
		t.Errorf("TimeoutMS = %d, want 700", got.TimeoutMS)
	}
	// First 2 distinct bidders in appearance order: appnexus, criteo.
	wantUnits := [][]string{{"appnexus", "criteo"}, {"criteo"}}
	for i, u := range got.AdUnits {
		if !reflect.DeepEqual(u.Bidders, wantUnits[i]) {
			t.Errorf("unit %d bidders = %v, want %v", i, u.Bidders, wantUnits[i])
		}
	}
}

func TestOverlayConfigPartnerCapNoop(t *testing.T) {
	cfg := overlayTestConfig()
	// Cap above the distinct pool (4 bidders): unit slices must be
	// shared, not cloned.
	got := OverlayConfig(cfg, &overlay.Overlay{MaxPartners: 10})
	if &got.AdUnits[0].Bidders[0] != &cfg.AdUnits[0].Bidders[0] {
		t.Error("no-op partner cap must not clone ad units")
	}
}

func TestOverlayConfigFixBadWrapper(t *testing.T) {
	cfg := overlayTestConfig()
	cfg.BadWrapper = true
	got := OverlayConfig(cfg, &overlay.Overlay{FixBadWrappers: true})
	if got.BadWrapper {
		t.Error("FixBadWrappers must clear BadWrapper")
	}
	if !cfg.BadWrapper {
		t.Error("shared config mutated")
	}
}

func TestOverlayConfigServerFacetUnaffectedByCap(t *testing.T) {
	cfg := &PageConfig{
		Site: "s.example", Facet: "server", ServerPartner: "dfp",
		AdUnits: []prebid.AdUnit{{Code: "a"}},
	}
	got := OverlayConfig(cfg, &overlay.Overlay{MaxPartners: 1})
	if got.ServerPartner != "dfp" || len(got.AdUnits) != 1 {
		t.Errorf("server-facet config changed: %+v", got)
	}
}
