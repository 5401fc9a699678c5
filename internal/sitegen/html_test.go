package sitegen

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"
)

// renderedPagesSHA256 digests every page of a 5,000-site seed-1 world
// in rank order, each followed by a NUL byte. It was computed with the
// renderer that concatenated separately built head and body strings, so
// it pins the one-builder renderer to the same bytes.
const renderedPagesSHA256 = "39d27241f6759a785afcca8835d33b57f766af0b31e478857dbd865ad3184aea"

func TestRenderedPagesPinned(t *testing.T) {
	w := genWorld(t, 5000, 1)
	h := sha256.New()
	hbPages := 0
	for _, s := range w.Sites {
		io.WriteString(h, w.PageHTML(s))
		h.Write([]byte{0})
		if s.HB {
			hbPages++
		}
	}
	if hbPages == 0 {
		t.Fatal("world has no HB pages; the pin covers only one renderer branch")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != renderedPagesSHA256 {
		t.Fatalf("rendered pages digest = %s, want %s", got, renderedPagesSHA256)
	}
}
