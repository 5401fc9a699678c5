package pagert

import (
	"reflect"
	"strconv"
	"sync"
	"testing"

	"headerbid/internal/htmlmeta"
	"headerbid/internal/prebid"
)

// memoTestDocs returns n parsed pages with distinct inline configs and
// one page whose config does not decode.
func memoTestDocs(t *testing.T, n int) []*htmlmeta.Document {
	t.Helper()
	var docs []*htmlmeta.Document
	for i := 0; i < n; i++ {
		cfg := &PageConfig{
			Site: "site" + strconv.Itoa(i) + ".example", Facet: "client", TimeoutMS: 1000 + i,
			AdUnits: []prebid.AdUnit{{Code: "u", SizeStr: []string{"300x250"}, Bidders: []string{"appnexus"}}},
		}
		inline, err := cfg.InlineScript()
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, htmlmeta.Parse("<head><script>"+inline+"</script></head>"))
	}
	return append(docs, htmlmeta.Parse("<head><script>var "+ConfigMarker+" = {broken;</script></head>"))
}

// Concurrent first visits of the same pages share one decode per
// config: every caller gets the same *PageConfig (or the same error),
// equal to what a memo-less decode gives.
func TestConfigMemoConcurrent(t *testing.T) {
	docs := memoTestDocs(t, 16)
	var memo ConfigMemo
	const goroutines = 8
	got := make([][]*PageConfig, goroutines)
	errs := make([][]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range docs {
				// Start each goroutine at a different page so first
				// decodes of one config race across goroutines.
				cfg, err := memo.Extract(docs[(i+g)%len(docs)])
				got[g] = append(got[g], cfg)
				errs[g] = append(errs[g], err)
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		for i := range docs {
			j := (i + g) % len(docs)
			want, wantErr := decode(docs[j])
			if !reflect.DeepEqual(got[g][i], want) || (errs[g][i] == nil) != (wantErr == nil) {
				t.Fatalf("goroutine %d page %d: Extract = %+v, %v; decode = %+v, %v",
					g, j, got[g][i], errs[g][i], want, wantErr)
			}
			// Goroutine 0 read page j at index j.
			if got[g][i] != got[0][j] || errs[g][i] != errs[0][j] {
				t.Fatalf("goroutine %d page %d: outcome not shared with goroutine 0", g, j)
			}
		}
	}
}

// A nil memo decodes every call; pages without a config yield nil, nil.
func TestConfigMemoNil(t *testing.T) {
	docs := memoTestDocs(t, 1)
	var memo *ConfigMemo
	a, errA := memo.Extract(docs[0])
	b, errB := memo.Extract(docs[0])
	if errA != nil || errB != nil || a == b || !reflect.DeepEqual(a, b) {
		t.Fatalf("nil memo: %p %v, %p %v; want two equal fresh decodes", a, errA, b, errB)
	}
	plain := htmlmeta.Parse("<head><script>var other = 1;</script></head>")
	for _, m := range []*ConfigMemo{nil, new(ConfigMemo)} {
		if cfg, err := m.Extract(plain); cfg != nil || err != nil {
			t.Fatalf("page without config: %v, %v", cfg, err)
		}
	}
}
