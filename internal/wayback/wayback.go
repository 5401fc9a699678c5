// Package wayback models the historical-snapshot archive used for the
// adoption study (Figure 4): yearly static HTML snapshots of the top-1k
// publishers, fetched on a fixed day per year (June 6th), scanned with
// static analysis because archived pages cannot be rendered reliably.
//
// The archive is synthetic but structured like the real study: adoption
// grows from early-adopter levels (~10%) in 2014 through the 2016
// breakthrough to a steady ~20%, and snapshots carry realistic noise —
// pages that adopted HB later, dropped it, or carry dead HB markup.
package wayback

import (
	"fmt"
	"sort"
	"strconv"

	"headerbid/internal/rng"
)

// Years covered by the study.
var Years = []int{2014, 2015, 2016, 2017, 2018, 2019}

// adoptionByYear is the calibrated true adoption rate of the yearly
// top-1k list (Figure 4: ~10% early adopters, steady ~20% after 2016).
var adoptionByYear = map[int]float64{
	2014: 0.10,
	2015: 0.12,
	2016: 0.17,
	2017: 0.20,
	2018: 0.205,
	2019: 0.21,
}

// Snapshot is one archived page.
type Snapshot struct {
	Domain string
	Year   int
	HTML   string
	// TrueHB is ground truth for evaluating the static detector.
	TrueHB bool
}

// Archive is the synthetic Wayback Machine: top-1k lists per year with
// one snapshot per (domain, year).
type Archive struct {
	seed  int64
	topN  int
	snaps map[int][]*Snapshot
}

// NewArchive builds an archive of the top-n publishers per year.
func NewArchive(seed int64, topN int) *Archive {
	if topN <= 0 {
		topN = 1000
	}
	a := &Archive{seed: seed, topN: topN, snaps: make(map[int][]*Snapshot)}
	for _, y := range Years {
		a.snaps[y] = a.generateYear(y)
	}
	return a
}

// Snapshots returns all snapshots of a year.
func (a *Archive) Snapshots(year int) []*Snapshot {
	return a.snaps[year]
}

// TrueAdoption returns the ground-truth adoption rate of a year's list.
func (a *Archive) TrueAdoption(year int) float64 {
	snaps := a.snaps[year]
	if len(snaps) == 0 {
		return 0
	}
	n := 0
	for _, s := range snaps {
		if s.TrueHB {
			n++
		}
	}
	return float64(n) / float64(len(snaps))
}

// generateYear creates the year's list and snapshots. Publisher identity
// is stable across years (publisher NNN keeps its domain), and HB
// adoption is sticky: a publisher that adopted in year Y stays adopted
// with high probability.
func (a *Archive) generateYear(year int) []*Snapshot {
	listRng := rng.SplitStable(a.seed, fmt.Sprintf("wayback/list/%d", year))
	// The top list churns: each year ~15% of slots rotate to "new"
	// publishers (higher publisher IDs appearing over time).
	var domains []string
	for i := 0; i < a.topN; i++ {
		id := i
		if listRng.Bool(0.15) {
			id = a.topN + (year-Years[0])*200 + listRng.Intn(200)
		}
		domains = append(domains, fmt.Sprintf("pub%04d.example", id))
	}
	sort.Strings(domains)
	dedup := domains[:0]
	seen := map[string]bool{}
	for _, d := range domains {
		if !seen[d] {
			seen[d] = true
			dedup = append(dedup, d)
		}
	}
	domains = dedup

	target := adoptionByYear[year]
	snaps := make([]*Snapshot, 0, len(domains))
	for _, d := range domains {
		pr := rng.SplitStable(a.seed, "wayback/pub/"+d)
		// adoptionScore in [0,1): publishers with low scores adopt first;
		// the yearly threshold rises with the target rate, making adoption
		// sticky across years for stable publishers.
		score := pr.Float64()
		hb := score < target
		yr := rng.SplitStable(a.seed, fmt.Sprintf("wayback/page/%s/%d", d, year))
		snaps = append(snaps, &Snapshot{
			Domain: d,
			Year:   year,
			HTML:   renderSnapshot(yr, d, year, hb),
			TrueHB: hb,
		})
	}
	return snaps
}

// renderSnapshot produces period-appropriate static HTML. HB pages embed
// the library script tags of their era; non-HB pages occasionally carry
// dead HB markup (in comments) that traps naive raw-grep analyses.
func renderSnapshot(r *rng.Stream, domain string, year int, hb bool) string {
	head := "<title>" + domain + "</title>\n" +
		`<script src="https://cdn.static.example/jquery-1.` + strconv.Itoa(4+year-2014) + `.js"></script>` + "\n"
	if hb {
		switch {
		case year <= 2015 && r.Bool(0.4):
			// Early adopters often ran bespoke wrappers.
			head += `<script src="https://static.` + domain + `/js/hb-wrapper.js"></script>` + "\n"
		default:
			ver := fmt.Sprintf("%d.%d", year-2014, r.Intn(30))
			head += `<script src="https://cdn.prebid.example/prebid.` + ver + `.js" async></script>` + "\n"
		}
		head += `<script>var pbjs = pbjs || {}; pbjs.que = [];</script>` + "\n"
		if r.Bool(0.6) {
			head += `<script src="https://www.googletagservices.com/tag/js/gpt.js" async></script>` + "\n"
		}
	} else if r.Bool(0.005) {
		head += "<!-- TODO re-enable header bidding:\n" +
			`<script src="https://cdn.prebid.example/prebid.js"></script>` + "\n-->\n"
	}
	body := "<h1>" + domain + " (" + strconv.Itoa(year) + ")</h1>\n<p>archived content</p>\n"
	return "<!DOCTYPE html>\n<html>\n<head>\n" + head + "</head>\n<body>\n" + body + "</body>\n</html>\n"
}
