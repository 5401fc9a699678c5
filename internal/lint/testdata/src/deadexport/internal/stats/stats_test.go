package stats

import "testing"

// A use from a test file does not count.
func TestSpearman(t *testing.T) {
	if Spearman(nil, nil) != 0 || Seam() != 1 {
		t.Fatal("unexpected")
	}
}
