package snapshot

import "sort"

// Names returns every registered metric name in sorted order, for the
// tests that round-trip each registered codec.
func Names() []string {
	out := make([]string, 0, len(builders))
	for n := range builders {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
