package rtb

import (
	"encoding/json"
	"testing"
	"testing/quick"

	"headerbid/internal/rng"
)

func sampleRequest() *BidRequest {
	return &BidRequest{
		ID: "req-1",
		Imp: []Impression{
			{ID: "slot-1", Banner: Banner{Format: []Format{{300, 250}}}, FloorCPM: 0.01},
			{ID: "slot-2", Banner: Banner{Format: []Format{{728, 90}}}},
		},
		Site: Site{Domain: "pub.example", Page: "https://www.pub.example/"},
		TMax: 3000,
	}
}

func TestBidRequestEncodeDecode(t *testing.T) {
	req := sampleRequest()
	blob, err := req.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	var back BidRequest
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.ID != req.ID || len(back.Imp) != 2 || back.TMax != 3000 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if back.Imp[0].Banner.Format[0].W != 300 {
		t.Fatalf("format lost: %+v", back.Imp[0])
	}
}

func TestDecodeBidResponse(t *testing.T) {
	body := `{"id":"req-1","cur":"USD","seatbid":[{"seat":"appnexus","bid":[{"impid":"slot-1","price":0.42,"w":300,"h":250,"crid":"cr-9"}]}]}`
	var resp BidResponse
	if err := DecodeBidResponse(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.SeatBid) != 1 || resp.SeatBid[0].Bid[0].Price != 0.42 {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestDecodeBidResponseMalformed(t *testing.T) {
	for _, bad := range []string{"", "{", "[1,2]", "<html>error</html>"} {
		var resp BidResponse
		if err := DecodeBidResponse(bad, &resp); err == nil {
			t.Errorf("DecodeBidResponse(%q) should fail", bad)
		}
	}
}

func TestNewExchangeDeterministic(t *testing.T) {
	a := NewExchange("appnexus", 5, 0.05, 0.5, 42)
	b := NewExchange("appnexus", 5, 0.05, 0.5, 42)
	if len(a.DSPs) != 5 || len(b.DSPs) != 5 {
		t.Fatalf("DSP counts: %d, %d", len(a.DSPs), len(b.DSPs))
	}
	for i := range a.DSPs {
		if a.DSPs[i] != b.DSPs[i] {
			t.Fatalf("exchange construction not deterministic at DSP %d", i)
		}
	}
	c := NewExchange("rubicon", 5, 0.05, 0.5, 42)
	same := true
	for i := range a.DSPs {
		if a.DSPs[i].BidProb != c.DSPs[i].BidProb {
			same = false
		}
	}
	if same {
		t.Fatal("different partners produced identical DSP pools")
	}
}

func TestNewExchangeMinimumOneDSP(t *testing.T) {
	e := NewExchange("x", 0, 0.05, 0.5, 1)
	if len(e.DSPs) != 1 {
		t.Fatalf("DSPs = %d, want 1", len(e.DSPs))
	}
}

func TestExchangeRunResultsPerImpression(t *testing.T) {
	e := NewExchange("appnexus", 8, 0.1, 0.5, 7)
	r := rng.New(7)
	results := e.Run(nil, sampleRequest(), r)
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2", len(results))
	}
	for i, res := range results {
		if res.ImpID != sampleRequest().Imp[i].ID {
			t.Fatalf("result %d order wrong: %s", i, res.ImpID)
		}
		if res.Elapsed <= 0 {
			t.Fatalf("no processing time recorded")
		}
	}
}

// Auction invariants, property-checked across seeds:
//   - clearing price never exceeds the top bid,
//   - clearing price respects floor and reserve,
//   - a winner implies at least one bid.
func TestSecondPriceInvariantsProperty(t *testing.T) {
	f := func(seed int64, floorRaw uint8) bool {
		floor := float64(floorRaw) / 1000 // 0 .. 0.255
		e := NewExchange("p", 6, 0.08, 0.8, seed)
		r := rng.New(seed)
		req := &BidRequest{
			ID:  "x",
			Imp: []Impression{{ID: "s", FloorCPM: floor, Banner: Banner{Format: []Format{{300, 250}}}}},
		}
		for trial := 0; trial < 20; trial++ {
			res := e.Run(nil, req, r)[0]
			if res.Winner == "" {
				if res.ClearingCPM != 0 {
					return false
				}
				continue
			}
			if res.Bids < 1 {
				return false
			}
			if res.ClearingCPM > res.TopCPM+1e-9 {
				return false // paid more than the winning bid
			}
			if res.ClearingCPM < floor-1e-9 && res.ClearingCPM < e.ReservePrice-1e-9 {
				return false // cleared below both floor and reserve
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFloorFiltersBids(t *testing.T) {
	e := NewExchange("p", 6, 0.05, 0.5, 3)
	r := rng.New(3)
	req := &BidRequest{
		ID:  "x",
		Imp: []Impression{{ID: "s", FloorCPM: 1000}}, // absurd floor
	}
	for trial := 0; trial < 50; trial++ {
		res := e.Run(nil, req, r)[0]
		if res.Winner != "" {
			t.Fatalf("bid cleared an impossible floor: %+v", res)
		}
	}
}

func TestExchangeRunDeterminism(t *testing.T) {
	e1 := NewExchange("p", 4, 0.05, 0.5, 9)
	e2 := NewExchange("p", 4, 0.05, 0.5, 9)
	r1, r2 := rng.New(11), rng.New(11)
	req := sampleRequest()
	for i := 0; i < 10; i++ {
		a := e1.Run(nil, req, r1)
		b := e2.Run(nil, req, r2)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("run %d imp %d differs: %+v vs %+v", i, j, a[j], b[j])
			}
		}
	}
}

func TestBidRequestExtSurvivesJSON(t *testing.T) {
	req := sampleRequest()
	req.Ext = json.RawMessage(`{"prebid":{"bidder":"rubicon"}}`)
	blob, _ := req.AppendJSON(nil)
	var back BidRequest
	json.Unmarshal(blob, &back)
	var ext map[string]map[string]string
	if err := json.Unmarshal(back.Ext, &ext); err != nil {
		t.Fatalf("ext lost: %s (%v)", back.Ext, err)
	}
	if ext["prebid"]["bidder"] != "rubicon" {
		t.Fatalf("ext lost: %s", back.Ext)
	}
}

// TestImpressionSizesNotSerialized: an impression's sizes travel only
// as its banner's format list, never as a field of their own.
func TestImpressionSizesNotSerialized(t *testing.T) {
	imp := Impression{ID: "a", Banner: Banner{Format: []Format{{W: 300, H: 250}}}}
	blob, _ := json.Marshal(imp)
	if string(blob) == "" || jsonHas(blob, "Sizes") || jsonHas(blob, "sizes") || !jsonHas(blob, "banner") {
		t.Fatalf("sizes leaked to wire: %s", blob)
	}
}

func jsonHas(blob []byte, key string) bool {
	var m map[string]any
	if err := json.Unmarshal(blob, &m); err != nil {
		return false
	}
	_, ok := m[key]
	return ok
}
