package prebid

import (
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"headerbid/internal/hb"
	"headerbid/internal/urlkit"
)

// setByKey is the ad-server query as a map assigned key by key would
// hold it (Query.Set per pair, the flat keys only when absent): the
// reference adServerQuery's append-then-sort-once build must equal.
func setByKey(r *roundState, now time.Time) urlkit.Query {
	w := r.wrapper
	params := urlkit.Query{
		{Key: "site", Value: w.cfg.Site},
		{Key: "t", Value: strconv.FormatInt(now.UnixMilli(), 10)},
	}
	var specs []string
	for _, u := range w.cfg.AdUnits {
		uo := r.unit(u.Code)
		specs = append(specs, u.Code+"|"+u.PrimarySize().String())
		if uo.Winner != nil {
			t := hb.TargetingFromBid(*uo.Winner)
			for _, p := range t {
				params.Set(p.Key+"."+u.Code, p.Value)
			}
			for _, p := range t {
				if _, dup := params.Lookup(p.Key); !dup {
					params.Set(p.Key, p.Value)
				}
			}
		}
		if w.cfg.SendAllBids {
			for _, b := range uo.Bids {
				if !b.Late {
					params.Set(hb.KeyPriceBuck+"_"+b.Bidder, hb.PriceBucket(b.USDCPM()))
				}
			}
		}
	}
	params.Set("slots", strings.Join(specs, ","))
	return params
}

// TestAdServerQueryMatchesSetByKey covers what a map would resolve:
// several winners (one in EUR with a deal, so its targeting has keys the
// others lack), a unit code used twice, a bidder bidding on two units
// under send-all-bids, and late bids.
func TestAdServerQueryMatchesSetByKey(t *testing.T) {
	unit := func(code string) AdUnit { return AdUnit{Code: code, Sizes: []hb.Size{hb.SizeMediumRectangle}} }
	bid := func(bidder string, cpm float64, cur hb.Currency, late bool) hb.Bid {
		return hb.Bid{Bidder: bidder, CPM: cpm, Currency: cur, Size: hb.SizeMediumRectangle,
			CreativeID: bidder + "-cr", Late: late}
	}
	for _, sendAll := range []bool{false, true} {
		w := &Wrapper{cfg: Config{Site: "site00042.example", SendAllBids: sendAll,
			AdUnits: []AdUnit{unit("div-2"), unit("div-1"), unit("div-3"), unit("div-2")}}}
		r := &roundState{wrapper: w}
		euro := bid("criteo", 1.3, hb.EUR, false)
		euro.DealID = "deal-7"
		bids := map[string][]hb.Bid{
			"div-1": {bid("ix", 0.41, hb.USD, false), bid("rubicon", 0.9, hb.USD, true)},
			"div-2": {euro, bid("ix", 0.2, hb.USD, false)},
			"div-3": nil,
		}
		for _, u := range w.cfg.AdUnits {
			w.units = append(w.units, UnitOutcome{AdUnit: u.Code, Bids: bids[u.Code]})
		}
		for i := range w.units {
			w.units[i].Winner = pickWinner(w.units[i].Bids)
		}
		now := time.Unix(1548979200, 0)
		got, want := r.adServerQuery(), setByKey(r, now)
		url := urlkit.WithLastValue("https://adserver.site00042.example/serve", got, strconv.AppendInt(nil, now.UnixMilli(), 10))
		if !slices.Equal(got, want) {
			t.Fatalf("send-all %v: adServerQuery, its time written by the URL\n%v\nset key by key\n%v", sendAll, got, want)
		}
		var wire urlkit.Queries
		if parsed := wire.Parse(url); !slices.Equal(parsed, want) {
			t.Fatalf("send-all %v: %s parses to %v, want %v", sendAll, url, parsed, want)
		}
	}
}
