package events

import (
	"strings"
	"testing"

	"headerbid/internal/hb"
)

// allTypes lists every event type in protocol order.
var allTypes = []Type{
	AuctionInit, RequestBids, BidRequested, BidResponse, BidTimeout,
	AuctionEnd, BidWon, SetTargeting, SlotRenderEnded, AdRenderFailed,
}

// record subscribes a listener that keeps every event the bus emits.
func record(b *Bus) *[]Event {
	var got []Event
	b.SubscribeAll(func(e Event) { got = append(got, e) })
	return &got
}

func TestBusSubscribeAndEmit(t *testing.T) {
	var b Bus
	got := record(&b)
	b.Emit(Event{Type: BidResponse, Bidder: "appnexus", CPM: 0.5})
	b.Emit(Event{Type: AuctionEnd})
	if len(*got) != 2 || (*got)[0].Bidder != "appnexus" || (*got)[0].CPM != 0.5 || (*got)[1].Type != AuctionEnd {
		t.Fatalf("got %v", *got)
	}
}

func TestBusSubscribeAll(t *testing.T) {
	var b Bus
	n := 0
	b.SubscribeAll(func(Event) { n++ })
	for _, typ := range allTypes {
		b.Emit(Event{Type: typ})
	}
	if n != len(allTypes) {
		t.Fatalf("wildcard saw %d, want %d", n, len(allTypes))
	}
}

func TestBusUnsubscribe(t *testing.T) {
	var b Bus
	n := 0
	cancel := b.SubscribeAll(func(Event) { n++ })
	b.Emit(Event{Type: BidWon})
	cancel()
	b.Emit(Event{Type: BidWon})
	if n != 1 {
		t.Fatalf("n = %d after unsubscribe, want 1", n)
	}
}

func TestBusDeliveryOrder(t *testing.T) {
	var b Bus
	var order []int
	b.SubscribeAll(func(Event) { order = append(order, 1) })
	b.SubscribeAll(func(Event) { order = append(order, 2) })
	b.SubscribeAll(func(Event) { order = append(order, 3) })
	b.Emit(Event{Type: AuctionInit})
	want := []int{1, 2, 3}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestBusHistoryAndCounts: a recording listener sees every emitted
// event, in emission order.
func TestBusHistoryAndCounts(t *testing.T) {
	var b Bus
	got := record(&b)
	b.Emit(Event{Type: AuctionInit})
	b.Emit(Event{Type: BidResponse})
	b.Emit(Event{Type: BidResponse})
	if len(*got) != 3 {
		t.Fatalf("recorded %d events", len(*got))
	}
	counts := make(map[Type]int)
	for _, e := range *got {
		counts[e.Type]++
	}
	if counts[BidResponse] != 2 || counts[AuctionInit] != 1 || (*got)[0].Type != AuctionInit {
		t.Fatalf("counts = %v, order = %v", counts, *got)
	}
}

func TestZeroValueBusUsable(t *testing.T) {
	var b Bus
	ok := false
	b.SubscribeAll(func(Event) { ok = true })
	b.Emit(Event{Type: BidWon})
	if !ok {
		t.Fatal("zero-value bus did not deliver")
	}
}

func TestTypeValid(t *testing.T) {
	for _, typ := range allTypes {
		if !typ.Valid() {
			t.Errorf("type %q invalid", typ)
		}
	}
	if Type("madeUp").Valid() {
		t.Fatal("unknown type validated")
	}
}

func TestEventString(t *testing.T) {
	e := Event{Type: BidResponse, AuctionID: "a1", AdUnit: "u1",
		Bidder: "rubicon", CPM: 0.1234, Size: hb.Size{W: 300, H: 250}}
	s := e.String()
	for _, want := range []string{"bidResponse", "a1", "rubicon", "300x250"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestListenerModificationDuringEmit(t *testing.T) {
	// A listener registering another listener mid-emit must not corrupt
	// delivery (new listener takes effect for subsequent emits).
	var b Bus
	n := 0
	b.SubscribeAll(func(Event) {
		n++
		if n == 1 {
			b.SubscribeAll(func(Event) { n += 10 })
		}
	})
	b.Emit(Event{Type: AuctionEnd})
	first := n
	b.Emit(Event{Type: AuctionEnd})
	if first != 1 && first != 11 {
		t.Fatalf("first emit n=%d", first)
	}
	if n < 12 {
		t.Fatalf("second emit did not reach new listener: n=%d", n)
	}
}

func TestBusReset(t *testing.T) {
	var b Bus
	n := 0
	cancelOld := b.SubscribeAll(func(Event) { n++ })
	b.SubscribeAll(func(Event) { n += 100 })
	b.Emit(Event{Type: AuctionInit})
	if n != 101 {
		t.Fatalf("pre-reset n = %d", n)
	}

	b.Reset()
	n = 0
	b.Emit(Event{Type: AuctionInit})
	if n != 0 {
		t.Fatalf("old listeners survived reset: n = %d", n)
	}

	// A cancel issued before the reset must not nil a listener slot the
	// reset bus has re-used.
	b.SubscribeAll(func(Event) { n++ })
	cancelOld()
	b.Emit(Event{Type: AuctionInit})
	if n != 1 {
		t.Fatalf("stale cancel killed new listener: n = %d", n)
	}
}
