// Package rtb implements the real-time-bidding substrate that demand
// partners run internally: OpenRTB-style bid requests/responses and the
// second-price auctions a partner holds among its affiliated DSPs before
// answering a header-bidding request (the "internal auction" boxes in
// Figures 1 and 5-7 of the paper).
package rtb

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"time"

	"headerbid/internal/rng"
)

// Impression describes one ad opportunity inside a bid request.
type Impression struct {
	ID string `json:"id"`
	// Banner mirrors the OpenRTB banner object on the wire.
	Banner   Banner  `json:"banner"`
	FloorCPM float64 `json:"bidfloor,omitempty"`
	TagID    string  `json:"tagid,omitempty"`
}

// Banner is the OpenRTB banner object (sizes as format list).
type Banner struct {
	Format []Format `json:"format"`
}

// Format is one acceptable creative size.
type Format struct {
	W int `json:"w"`
	H int `json:"h"`
}

// BidRequest is the JSON payload a wrapper (or ad server) POSTs to a
// demand partner. The shape follows OpenRTB 2.5 closely enough that the
// detector's payload heuristics behave as they would on real traffic.
type BidRequest struct {
	ID   string       `json:"id"`
	Imp  []Impression `json:"imp"`
	Site Site         `json:"site"`
	User User         `json:"user"`
	TMax int          `json:"tmax,omitempty"` // milliseconds the caller will wait
	Test int          `json:"test,omitempty"`
	// Ext carries wrapper-specific extras; prebid puts its bidder params
	// here, which is one of the request signatures the detector keys on.
	// It is a RawMessage rather than map[string]any: the wire bytes are
	// identical, but encoding a pre-rendered fragment is a copy instead
	// of a reflect-driven map sort, and decoding keeps it opaque instead
	// of materializing nested maps on every simulated bid request.
	Ext json.RawMessage `json:"ext,omitempty"`
}

// Site identifies the publisher page.
type Site struct {
	Domain string `json:"domain"`
	Page   string `json:"page"`
	Ref    string `json:"ref,omitempty"`
}

// User carries user identifiers. Clean-state crawls have no stable ID and
// no interest segments — exactly the paper's "vanilla" condition.
type User struct {
	BuyerUID string   `json:"buyeruid,omitempty"`
	Segments []string `json:"segments,omitempty"`
}

// SeatBid groups bids by bidding seat (DSP).
type SeatBid struct {
	Seat string    `json:"seat"`
	Bid  []SeatOne `json:"bid"`
}

// SeatOne is one bid inside a seat.
type SeatOne struct {
	ImpID    string  `json:"impid"`
	Price    float64 `json:"price"`
	W        int     `json:"w"`
	H        int     `json:"h"`
	AdMarkup string  `json:"adm,omitempty"`
	CrID     string  `json:"crid,omitempty"`
	DealID   string  `json:"dealid,omitempty"`
	NURL     string  `json:"nurl,omitempty"` // win notification URL
}

// BidResponse is the partner's answer.
type BidResponse struct {
	ID       string    `json:"id"`
	SeatBid  []SeatBid `json:"seatbid,omitempty"`
	Currency string    `json:"cur,omitempty"`
	NBR      int       `json:"nbr,omitempty"` // no-bid reason
}

// DecodeBidResponse parses a partner response body into dst, the
// caller's reused storage (UnmarshalBidResponse keeps its slices'
// capacity), and names a malformed body as such. It takes the body as a
// string because that is how webreq carries it — the codec decodes
// substrings in place, so no []byte round-trip copy is needed. dst is
// valid until its next decode.
func DecodeBidResponse(body string, dst *BidResponse) error {
	if err := UnmarshalBidResponse(body, dst); err != nil {
		return fmt.Errorf("rtb: malformed bid response: %w", err) //hbvet:allow hotalloc cold error path: simulated partners emit well-formed JSON
	}
	return nil
}

// DSP is one demand-side platform participating in a partner's internal
// auction.
type DSP struct {
	Name string
	// BidProb is the chance this DSP bids on a clean-state impression.
	BidProb float64
	// PriceMedian/PriceSigma parameterize its lognormal CPM.
	PriceMedian float64
	PriceSigma  float64
	// Latency contribution of evaluating this DSP (serialized into the
	// partner's processing time).
	EvalTime time.Duration
}

// Exchange is a partner-internal ad exchange: it fans a request out to its
// affiliated DSPs and resolves a second-price auction.
type Exchange struct {
	Partner string
	DSPs    []DSP
	// ReservePrice is the minimum clearing price.
	ReservePrice float64
}

// NewExchange builds a plausible internal exchange for a partner with n
// affiliated DSPs, deterministic in the partner slug.
func NewExchange(partner string, n int, priceMedian, priceSigma float64, seed int64) *Exchange {
	if n < 1 {
		n = 1
	}
	r := rng.SplitStable(seed, "exchange/"+partner)
	dsps := make([]DSP, n)
	for i := range dsps {
		dsps[i] = DSP{
			Name:        partner + "-dsp" + strconv.Itoa(i+1),
			BidProb:     0.25 + 0.5*r.Float64(),
			PriceMedian: priceMedian * (0.6 + 0.8*r.Float64()),
			PriceSigma:  priceSigma,
			EvalTime:    time.Duration(2+r.Intn(12)) * time.Millisecond,
		}
	}
	return &Exchange{Partner: partner, DSPs: dsps, ReservePrice: 0.0001}
}

// AuctionResult is the outcome of one internal auction for one impression.
type AuctionResult struct {
	ImpID       string
	Winner      string  // DSP name, "" when no bids
	ClearingCPM float64 // second-price (or reserve) clearing price
	TopCPM      float64 // the winning bid before price reduction
	Bids        int
	// Elapsed is the processing time the auction added at the partner.
	Elapsed time.Duration
}

// Run executes a sealed-bid second-price auction among the exchange's DSPs
// for each impression in the request and appends the results to dst, in
// impression order: a caller that passes its previous results [:0]
// reuses their storage. Randomness comes from r, so identical seeds
// reproduce identical auctions.
func (e *Exchange) Run(dst []AuctionResult, req *BidRequest, r *rng.Stream) []AuctionResult {
	out := dst
	for _, imp := range req.Imp {
		res := AuctionResult{ImpID: imp.ID}
		var top, second float64
		var winner string
		for _, d := range e.DSPs {
			res.Elapsed += d.EvalTime
			if !r.Bool(d.BidProb) {
				continue
			}
			price := sampleLognormal(r, d.PriceMedian, d.PriceSigma)
			if price < imp.FloorCPM || price < e.ReservePrice {
				continue
			}
			res.Bids++
			switch {
			case price > top:
				second = top
				top = price
				winner = d.Name
			case price > second:
				second = price
			}
		}
		if winner != "" {
			res.Winner = winner
			res.TopCPM = top
			// Second-price with reserve: pay max(second, floor, reserve)
			// plus one increment.
			clearing := second
			if imp.FloorCPM > clearing {
				clearing = imp.FloorCPM
			}
			if e.ReservePrice > clearing {
				clearing = e.ReservePrice
			}
			const increment = 0.0001
			if clearing+increment < top {
				clearing += increment
			} else {
				clearing = top
			}
			res.ClearingCPM = clearing
		}
		out = append(out, res)
	}
	return out
}

func sampleLognormal(r *rng.Stream, median, sigma float64) float64 {
	if median <= 0 {
		median = 1e-6
	}
	return r.LogNormal(math.Log(median), sigma)
}
