package netem

import (
	"testing"
	"time"

	"tcppr/internal/sim"
)

// TestLinkBlackout verifies SetDown semantics: enqueues while down are
// rejected and counted, packets accepted before the cut still deliver,
// and the link resumes cleanly when brought back up.
func TestLinkBlackout(t *testing.T) {
	s, net := newTestNet()
	l := net.AddLink("a", "b", mbps(10), 5*time.Millisecond, 100)
	delivered := 0
	net.Node("b").Handle(1, func(*Packet) { delivered++ })

	// Two packets accepted, then the link goes down with them in flight.
	for i := 0; i < 2; i++ {
		if !net.Send(&Packet{Flow: 1, Size: 1000, Path: []*Link{l}}) {
			t.Fatal("pre-blackout Send rejected")
		}
	}
	l.SetDown(true)
	if l.Enqueue(&Packet{Flow: 1, Size: 1000, Path: []*Link{l}}) {
		t.Fatal("Enqueue accepted a packet on a down link")
	}
	s.Run()
	if delivered != 2 {
		t.Errorf("in-flight packets at cut time: delivered %d, want 2", delivered)
	}
	if got := l.Stats().BlackoutDropped; got != 1 {
		t.Errorf("BlackoutDropped = %d, want 1", got)
	}
	if !l.IsDown() {
		t.Error("IsDown = false while down")
	}

	l.SetDown(false)
	if !net.Send(&Packet{Flow: 1, Size: 1000, Path: []*Link{l}}) {
		t.Fatal("post-blackout Send rejected")
	}
	s.Run()
	if delivered != 3 {
		t.Errorf("delivered %d after restore, want 3", delivered)
	}
}

// TestLinkBandwidthStep checks that a mid-run bandwidth change applies to
// subsequent serializations only: a packet enqueued after the step takes
// the new TxTime.
func TestLinkBandwidthStep(t *testing.T) {
	s, net := newTestNet()
	l := net.AddLink("a", "b", mbps(8), 0, 100) // 1000 B = 1 ms
	var arrivals []sim.Time
	net.Node("b").Handle(1, func(*Packet) { arrivals = append(arrivals, s.Now()) })

	net.Send(&Packet{Flow: 1, Size: 1000, Path: []*Link{l}})
	s.Run()
	l.SetBandwidth(mbps(4)) // 1000 B = 2 ms
	net.Send(&Packet{Flow: 1, Size: 1000, Path: []*Link{l}})
	s.Run()

	if len(arrivals) != 2 {
		t.Fatalf("delivered %d, want 2", len(arrivals))
	}
	if arrivals[0] != time.Millisecond {
		t.Errorf("pre-step arrival at %v, want 1ms", arrivals[0])
	}
	if got := arrivals[1] - arrivals[0]; got != 2*time.Millisecond {
		t.Errorf("post-step serialization took %v, want 2ms", got)
	}
}

// TestLinkDelayStepReordersInFlight pins the property fault timelines
// exploit: decreasing the propagation delay mid-run lets later packets
// overtake earlier ones still in flight — the route-shortening reordering
// event of the paper's §1.
func TestLinkDelayStepReordersInFlight(t *testing.T) {
	s, net := newTestNet()
	l := net.AddLink("a", "b", mbps(1000), 50*time.Millisecond, 100)
	var order []uint64
	net.Node("b").Handle(1, func(p *Packet) { order = append(order, p.ID) })

	net.Send(&Packet{Flow: 1, Size: 100, Path: []*Link{l}}) // ID 0, arrives ~50ms
	s.RunUntil(time.Millisecond)
	l.SetDelay(time.Millisecond)
	net.Send(&Packet{Flow: 1, Size: 100, Path: []*Link{l}}) // ID 1, arrives ~2ms
	s.Run()

	if len(order) != 2 || order[0] != 1 || order[1] != 0 {
		t.Errorf("arrival order = %v, want [1 0] (delay drop overtakes in-flight)", order)
	}
}

// TestLinkQueueCapShrink checks that shrinking the queue below its current
// occupancy drops nothing already accepted but rejects new arrivals until
// the backlog drains under the new capacity.
func TestLinkQueueCapShrink(t *testing.T) {
	s, net := newTestNet()
	l := net.AddLink("a", "b", mbps(8), 0, 100) // 1 ms per 1000 B packet
	delivered := 0
	net.Node("b").Handle(1, func(*Packet) { delivered++ })

	for i := 0; i < 10; i++ {
		if !net.Send(&Packet{Flow: 1, Size: 1000, Path: []*Link{l}}) {
			t.Fatal("initial fill rejected")
		}
	}
	l.SetQueueCap(2)
	if net.Send(&Packet{Flow: 1, Size: 1000, Path: []*Link{l}}) {
		t.Fatal("Send accepted with occupancy above the shrunken capacity")
	}
	// After 9 of the 10 drain, occupancy is 1 < 2: accepted again.
	s.RunUntil(9*time.Millisecond + time.Microsecond)
	if !net.Send(&Packet{Flow: 1, Size: 1000, Path: []*Link{l}}) {
		t.Fatal("Send rejected after the backlog drained below the new cap")
	}
	s.Run()
	if delivered != 11 {
		t.Errorf("delivered %d, want 11 (10 original + 1 post-drain)", delivered)
	}
	if got := l.Stats().Dropped; got != 1 {
		t.Errorf("Dropped = %d, want 1", got)
	}
}

// TestLinkCorruption checks the corruption impairment: corrupted packets
// consume link resources but are discarded at the far end, counted, and
// reported to the observers as drops.
func TestLinkCorruption(t *testing.T) {
	s, net := newTestNet()
	l := net.AddLink("a", "b", mbps(100), 0, 1<<20)
	l.SetImpairment(NewCorruption(0.3, sim.NewRand(5)))
	delivered, dropped := 0, 0
	net.Node("b").Handle(1, func(*Packet) { delivered++ })
	net.Observe(funcObs(func(kind string, _ *Link, _ *Packet) {
		if kind == "drop" {
			dropped++
		}
	}))

	const n = 5000
	for i := 0; i < n; i++ {
		if !net.Send(&Packet{Flow: 1, Size: 100, Path: []*Link{l}}) {
			t.Fatal("Send rejected")
		}
	}
	s.Run()
	st := l.Stats()
	if delivered+int(st.Corrupted) != n {
		t.Errorf("delivered %d + corrupted %d != %d", delivered, st.Corrupted, n)
	}
	if int(st.Corrupted) != dropped {
		t.Errorf("PacketDropped fired %d times, want %d (one per corruption)", dropped, st.Corrupted)
	}
	frac := float64(st.Corrupted) / n
	if frac < 0.25 || frac > 0.35 {
		t.Errorf("corruption fraction = %.3f, want ~0.3", frac)
	}
	if st.Delivered != uint64(delivered) {
		t.Errorf("Delivered = %d, want %d (corrupted packets must not count)", st.Delivered, delivered)
	}
}

// TestLinkDuplication checks the duplication impairment: duplicated
// packets arrive twice and each copy routes independently.
func TestLinkDuplication(t *testing.T) {
	s, net := newTestNet()
	// Two hops so duplicates made on the first must forward over the second.
	l1 := net.AddLink("a", "b", mbps(100), 0, 1<<20)
	l2 := net.AddLink("b", "c", mbps(100), 0, 1<<20)
	l1.SetImpairment(NewDuplication(0.25, sim.NewRand(9)))
	arrivals := 0
	net.Node("c").Handle(1, func(*Packet) { arrivals++ })

	const n = 4000
	for i := 0; i < n; i++ {
		net.Send(&Packet{Flow: 1, Size: 100, Path: []*Link{l1, l2}})
	}
	s.Run()
	dups := int(l1.Stats().Duplicated)
	if arrivals != n+dups {
		t.Errorf("end-to-end arrivals = %d, want %d originals + %d duplicates", arrivals, n, dups)
	}
	frac := float64(dups) / n
	if frac < 0.2 || frac > 0.3 {
		t.Errorf("duplication fraction = %.3f, want ~0.25", frac)
	}
}

// TestLinkPacketDelivered checks the delivery notification: it fires once
// per packet handed downstream (not for drops) with the packet still on
// this link.
func TestLinkPacketDelivered(t *testing.T) {
	s, net := newTestNet()
	l := net.AddLink("a", "b", mbps(100), 0, 2)
	seen := 0
	net.Observe(funcObs(func(kind string, _ *Link, p *Packet) {
		if kind != "del" {
			return
		}
		if p.NextLink() != l {
			t.Errorf("PacketDelivered packet already advanced past %s", l)
		}
		seen++
	}))
	net.Node("b").Handle(1, func(*Packet) {})
	accepted := 0
	for i := 0; i < 10; i++ { // overflow the 2-slot queue: some drop
		if net.Send(&Packet{Flow: 1, Size: 1000, Path: []*Link{l}}) {
			accepted++
		}
	}
	s.Run()
	if accepted >= 10 {
		t.Fatal("expected some queue drops")
	}
	if seen != accepted {
		t.Errorf("PacketDelivered fired %d times, want %d (accepted packets only)", seen, accepted)
	}
}

// TestLinkDynamicSetterValidation pins the panics on nonsense mid-run
// parameter values.
func TestLinkDynamicSetterValidation(t *testing.T) {
	_, net := newTestNet()
	l := net.AddLink("a", "b", mbps(10), 0, 10)
	for name, fn := range map[string]func(){
		"zero bandwidth": func() { l.SetBandwidth(0) },
		"negative delay": func() { l.SetDelay(-time.Second) },
		"zero queue":     func() { l.SetQueueCap(0) },
		"corrupt > 1":    func() { NewCorruption(1.5, sim.NewRand(1)) },
		"dup nil rng":    func() { NewDuplication(0.5, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s must panic", name)
				}
			}()
			fn()
		}()
	}
}
