package sitegen

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"reflect"
	"strings"
	"testing"

	"headerbid/internal/htmlmeta"
	"headerbid/internal/pagert"
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

// TestSeededConfigsMatchDecode: the config the renderer seeds into
// World.Configs must be exactly what the measurement side decodes from
// the page it rendered, or a page's first visit would run a wrapper
// setup its bytes do not describe. Every HB page of two seeds' worlds is
// checked: the memo's first answer for the page must be the seeded
// config (its ad units share the site's arrays, which no decode does)
// and deep-equal a memo-less decode of the page. The pages must cover
// every facet and the pubfood, bad-wrapper, send-all-bids and
// multi-device setups.
func TestSeededConfigsMatchDecode(t *testing.T) {
	covered := map[string]int{}
	for _, seed := range []int64{1, 2} {
		w := genWorld(t, 3000, seed)
		for _, s := range w.HBSites() {
			doc := htmlmeta.Parse(w.PageHTML(s))
			want, err := (*pagert.ConfigMemo)(nil).Extract(doc)
			if err != nil || want == nil {
				t.Fatalf("seed %d %s: page config does not decode: %v", seed, s.Domain, err)
			}
			got, err := w.Configs.Extract(doc)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d %s: memo holds %+v (err %v), the page decodes to %+v", seed, s.Domain, got, err, want)
			}
			if len(got.AdUnits) == 0 || &got.AdUnits[0].Sizes[0] != &s.AdUnits[0].Sizes[0] {
				t.Fatalf("seed %d %s: the first Extract decoded the page instead of returning the seeded config", seed, s.Domain)
			}
			covered[got.Facet]++
			if got.Library == "pubfood" {
				covered["pubfood"]++
			}
			if got.BadWrapper {
				covered["bad-wrapper"]++
			}
			if got.SendAllBids {
				covered["send-all-bids"]++
			}
			for _, u := range got.AdUnits {
				if strings.HasSuffix(u.Code, "-tablet") {
					covered["multi-device"]++
				}
			}
		}
	}
	for _, k := range []string{"client", "server", "hybrid", "pubfood", "bad-wrapper", "send-all-bids", "multi-device"} {
		if covered[k] == 0 {
			t.Errorf("no %s page among the checked worlds", k)
		}
	}
	t.Logf("pages covered: %v", covered)
}
