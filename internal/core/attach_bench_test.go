package core

import (
	"testing"
	"time"

	"headerbid/internal/browser"
	"headerbid/internal/partners"
	"headerbid/internal/webreq"
)

type inertEnv struct{ now time.Time }

func (e *inertEnv) Now() time.Time                                       { return e.now }
func (e *inertEnv) After(d time.Duration, fn func())                     { fn() }
func (e *inertEnv) Post(fn func())                                       { fn() }
func (e *inertEnv) Fetch(req *webreq.Request, cb func(*webreq.Response)) {}

// BenchmarkAttachNonHBVisit measures the detector's fixed per-visit cost
// on a page that produces no HB signal at all (the majority of crawled
// sites): attach both channels, observe nothing, finalize. Before the
// lazy-state change this allocated ~12 maps per visit; now it is the
// detector struct, the three hook registrations and the empty
// observation.
func BenchmarkAttachNonHBVisit(b *testing.B) {
	benchAttachNonHB(b, false)
}

// BenchmarkAttachNonHBVisit_Eager is the same workload with every map
// materialized up front (the pre-overhaul behavior), kept for PERF.md's
// before/after comparison.
func BenchmarkAttachNonHBVisit_Eager(b *testing.B) {
	benchAttachNonHB(b, true)
}

func benchAttachNonHB(b *testing.B, eager bool) {
	prev := EagerAttachForTest
	EagerAttachForTest = eager
	defer func() { EagerAttachForTest = prev }()
	reg := partners.Default()
	env := &inertEnv{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		page := browser.NewPage(env, browser.Options{})
		page.URL = "https://www.site00001.example/"
		det := Attach(page, reg)
		obs := det.Observation()
		if obs.HB {
			b.Fatal("empty visit classified as HB")
		}
	}
}
