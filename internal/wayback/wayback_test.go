package wayback

import (
	"math"
	"testing"

	"headerbid/internal/staticdet"
)

func TestArchiveDeterministic(t *testing.T) {
	a := NewArchive(5, 300)
	b := NewArchive(5, 300)
	for _, y := range Years {
		sa, sb := a.Snapshots(y), b.Snapshots(y)
		if len(sa) != len(sb) {
			t.Fatalf("year %d sizes differ", y)
		}
		for i := range sa {
			if sa[i].Domain != sb[i].Domain || sa[i].TrueHB != sb[i].TrueHB || sa[i].HTML != sb[i].HTML {
				t.Fatalf("year %d snapshot %d differs", y, i)
			}
		}
	}
}

func TestTrueAdoptionTracksCalibration(t *testing.T) {
	a := NewArchive(1, 1000)
	want := map[int]float64{2014: 0.10, 2016: 0.17, 2019: 0.21}
	for y, rate := range want {
		got := a.TrueAdoption(y)
		if math.Abs(got-rate) > 0.035 {
			t.Errorf("year %d adoption %.3f, want ≈%.2f", y, got, rate)
		}
	}
}

func TestAdoptionMonotoneOverYears(t *testing.T) {
	a := NewArchive(2, 1000)
	prev := -1.0
	for _, y := range Years {
		r := a.TrueAdoption(y)
		if r < prev-0.02 {
			t.Fatalf("adoption regressed in %d: %.3f after %.3f", y, r, prev)
		}
		prev = r
	}
}

func TestAdoptionStickyForStablePublishers(t *testing.T) {
	// A publisher adopted in 2015 (low score) must still be adopted in
	// 2019 if present: thresholds only rise.
	a := NewArchive(3, 500)
	hb2019 := map[string]bool{}
	for _, s := range a.Snapshots(2019) {
		hb2019[s.Domain] = s.TrueHB
	}
	for _, s := range a.Snapshots(2015) {
		if !s.TrueHB {
			continue
		}
		if later, ok := hb2019[s.Domain]; ok && !later {
			t.Fatalf("%s dropped HB between 2015 and 2019 (adoption should be sticky)", s.Domain)
		}
	}
}

func TestListChurn(t *testing.T) {
	a := NewArchive(4, 1000)
	first := map[string]bool{}
	for _, s := range a.Snapshots(2014) {
		first[s.Domain] = true
	}
	overlap := 0
	list19 := a.Snapshots(2019)
	for _, s := range list19 {
		if first[s.Domain] {
			overlap++
		}
	}
	frac := float64(overlap) / float64(len(list19))
	// Real top lists churn; the paper measured 55-78% overlap over years.
	if frac < 0.3 || frac > 0.95 {
		t.Fatalf("2014/2019 overlap %.2f implausible", frac)
	}
}

func TestSnapshotHTMLScannable(t *testing.T) {
	a := NewArchive(6, 300)
	det := staticdet.New()
	for _, y := range Years {
		tp, fn := 0, 0
		for _, s := range a.Snapshots(y) {
			got := det.Scan(s.HTML).HB
			if s.TrueHB && got {
				tp++
			}
			if s.TrueHB && !got {
				fn++
			}
		}
		if tp == 0 {
			t.Fatalf("year %d: static detector found nothing", y)
		}
		recall := float64(tp) / float64(tp+fn)
		if recall < 0.95 {
			t.Fatalf("year %d recall %.3f (HB snapshots must carry detectable markup)", y, recall)
		}
	}
}

func TestGetMissingDomain(t *testing.T) {
	a := NewArchive(7, 100)
	for _, y := range Years {
		for _, s := range a.Snapshots(y) {
			if s.Domain == "never-existed.example" {
				t.Fatalf("phantom snapshot in %d", y)
			}
		}
	}
}

func TestDefaultTopN(t *testing.T) {
	a := NewArchive(8, 0)
	if n := len(a.Snapshots(2019)); n < 800 || n > 1000 {
		t.Fatalf("default top list size %d, want ≈1000 (minus dedup churn)", n)
	}
}
