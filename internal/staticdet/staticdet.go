// Package staticdet implements the static-analysis HB detector: scan page
// source for script tags that load known HB libraries. The paper rejects
// this method for the live crawl (false positives from dead or misnamed
// markup, false negatives from renamed libraries) but uses it for the
// historical adoption study, because archived snapshots cannot be rendered
// reliably (§4.1). We implement it for exactly that role, plus as the
// baseline for the detection-method ablation.
package staticdet

import (
	"regexp"

	"headerbid/internal/htmlmeta"
)

// Signature is one known HB library pattern.
type Signature struct {
	Library string
	Pattern *regexp.Regexp
}

// DefaultSignatures returns the library patterns the paper's analysis
// keys on: prebid.js and variants, gpt.js, pubfood.js.
func DefaultSignatures() []Signature {
	return []Signature{
		{"prebid.js", regexp.MustCompile(`(?i)prebid[^"'\s]*\.js|/pbjs\b|\bpbjs[._-]`)},
		{"gpt.js", regexp.MustCompile(`(?i)gpt\.js|googletagservices`)},
		{"pubfood.js", regexp.MustCompile(`(?i)pubfood[^"'\s]*\.js`)},
		{"generic-hb", regexp.MustCompile(`(?i)headerbid|hb-wrapper`)},
	}
}

// Result is the verdict of a static scan.
type Result struct {
	HB        bool
	Libraries []string
	// ScriptHits counts script elements (src or inline) matching a
	// signature; RawHits counts raw-source matches, which include markup
	// inside comments — the false-positive trap the paper warns about.
	ScriptHits int
	RawHits    int
}

// Detector scans page source for HB library signatures.
type Detector struct {
	sigs []Signature
	// StrictScripts restricts matching to actual script elements instead
	// of grepping raw source. Raw grepping is what naive analyses do; the
	// strict mode avoids commented-out markup (at the cost of still
	// counting libraries that are present but never executed).
	StrictScripts bool
}

// New returns a detector with the default signatures, strict mode on.
func New() *Detector {
	return &Detector{sigs: DefaultSignatures(), StrictScripts: true}
}

// NewRaw returns a naive raw-source detector (the ablation baseline).
func NewRaw() *Detector {
	return &Detector{sigs: DefaultSignatures(), StrictScripts: false}
}

// Scan analyzes HTML source.
func (d *Detector) Scan(src string) Result {
	var res Result
	libs := map[string]bool{}

	for _, sig := range d.sigs {
		if sig.Pattern.MatchString(src) {
			res.RawHits++
			if !d.StrictScripts {
				libs[sig.Library] = true
			}
		}
	}
	doc := htmlmeta.Parse(src)
	for _, s := range doc.Scripts {
		target := s.Src
		if target == "" {
			target = s.Inline
		}
		for _, sig := range d.sigs {
			if sig.Pattern.MatchString(target) {
				res.ScriptHits++
				if d.StrictScripts {
					libs[sig.Library] = true
				}
			}
		}
	}

	for l := range libs {
		res.Libraries = append(res.Libraries, l)
	}
	sortStrings(res.Libraries)
	res.HB = len(res.Libraries) > 0
	return res
}

func sortStrings(xs []string) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
