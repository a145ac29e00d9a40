package netem

import (
	"testing"
	"testing/quick"
	"time"

	"tcppr/internal/sim"
)

// mbps converts megabits/second to bits/second.
func mbps(m float64) int64 { return int64(m * 1e6) }

func newTestNet() (*sim.Scheduler, *Network) {
	s := sim.NewScheduler()
	return s, NewNetwork(s)
}

func TestLinkDeliveryTiming(t *testing.T) {
	s, net := newTestNet()
	l := net.AddLink("a", "b", mbps(10), 10*time.Millisecond, 100)
	var arrived sim.Time = -1
	net.Node("b").Handle(1, func(p *Packet) { arrived = s.Now() })

	// 1000 bytes at 10 Mbps = 800 us serialization + 10 ms propagation.
	net.Send(&Packet{Flow: 1, Size: 1000, Path: []*Link{l}})
	s.Run()

	want := 800*time.Microsecond + 10*time.Millisecond
	if arrived != want {
		t.Errorf("arrival at %v, want %v", arrived, want)
	}
}

func TestLinkSerializesBackToBack(t *testing.T) {
	s, net := newTestNet()
	l := net.AddLink("a", "b", mbps(10), 0, 100)
	var arrivals []sim.Time
	net.Node("b").Handle(1, func(p *Packet) { arrivals = append(arrivals, s.Now()) })

	for i := 0; i < 3; i++ {
		net.Send(&Packet{Flow: 1, Size: 1000, Path: []*Link{l}})
	}
	s.Run()

	tx := 800 * time.Microsecond
	for i, a := range arrivals {
		want := time.Duration(i+1) * tx
		if a != want {
			t.Errorf("packet %d arrived at %v, want %v", i, a, want)
		}
	}
}

func TestLinkPreservesFIFOOrder(t *testing.T) {
	s, net := newTestNet()
	l := net.AddLink("a", "b", mbps(1), time.Millisecond, 1000)
	var got []uint64
	net.Node("b").Handle(1, func(p *Packet) { got = append(got, p.ID) })
	for i := 0; i < 50; i++ {
		net.Send(&Packet{Flow: 1, Size: 100 + 13*i, Path: []*Link{l}})
	}
	s.Run()
	if len(got) != 50 {
		t.Fatalf("delivered %d packets, want 50", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("FIFO violation: packet %d delivered after %d", got[i], got[i-1])
		}
	}
}

func TestLinkDropTail(t *testing.T) {
	s, net := newTestNet()
	l := net.AddLink("a", "b", mbps(1), 0, 5)
	delivered := 0
	net.Node("b").Handle(1, func(p *Packet) { delivered++ })
	obs := &recordObs{}
	net.Observe(obs)

	accepted := 0
	for i := 0; i < 10; i++ {
		if net.Send(&Packet{Flow: 1, Size: 1000, Path: []*Link{l}}) {
			accepted++
		}
	}
	s.Run()

	if accepted != 5 {
		t.Errorf("accepted %d packets into a 5-slot queue in one instant, want 5", accepted)
	}
	if delivered != 5 {
		t.Errorf("delivered %d, want 5", delivered)
	}
	if l.Stats().Dropped != 5 {
		t.Errorf("Dropped = %d, want 5", l.Stats().Dropped)
	}
	if len(obs.drops) != 5 {
		t.Errorf("PacketDropped fired %d times, want 5", len(obs.drops))
	}
	if got := l.Stats().DropRate(); got != 0.5 {
		t.Errorf("DropRate = %v, want 0.5", got)
	}
}

func TestLinkQueueSlotFreesAfterSerialization(t *testing.T) {
	s, net := newTestNet()
	// 1000-byte packets at 8 Mbps serialize in 1 ms.
	l := net.AddLink("a", "b", mbps(8), time.Hour, 1)
	delivered := 0
	net.Node("b").Handle(1, func(p *Packet) { delivered++ })

	net.Send(&Packet{Flow: 1, Size: 1000, Path: []*Link{l}})
	// Queue full now; a second immediate send must fail...
	if net.Send(&Packet{Flow: 1, Size: 1000, Path: []*Link{l}}) {
		t.Fatal("second packet should have been tail-dropped")
	}
	// ...but after serialization completes the slot frees even though the
	// first packet is still propagating.
	s.At(2*time.Millisecond, func() {
		if !net.Send(&Packet{Flow: 1, Size: 1000, Path: []*Link{l}}) {
			t.Error("queue slot should free after serialization, before propagation ends")
		}
	})
	s.RunUntil(3 * time.Millisecond)
	if l.Stats().Enqueued != 2 {
		t.Errorf("Enqueued = %d, want 2", l.Stats().Enqueued)
	}
}

func TestMultiHopForwarding(t *testing.T) {
	s, net := newTestNet()
	l1 := net.AddLink("a", "b", mbps(10), 5*time.Millisecond, 100)
	l2 := net.AddLink("b", "c", mbps(10), 7*time.Millisecond, 100)
	var arrived sim.Time = -1
	var hops int
	net.Node("c").Handle(9, func(p *Packet) { arrived, hops = s.Now(), p.Hops })

	net.Send(&Packet{Flow: 9, Size: 1000, Path: []*Link{l1, l2}})
	s.Run()

	want := 2*800*time.Microsecond + 12*time.Millisecond
	if arrived != want {
		t.Errorf("arrival at %v, want %v", arrived, want)
	}
	if hops != 2 {
		t.Errorf("Hops = %d, want 2", hops)
	}
	if net.Node("b").Forwarded != 1 {
		t.Errorf("b.Forwarded = %d, want 1", net.Node("b").Forwarded)
	}
}

func TestDiscontiguousPathPanics(t *testing.T) {
	_, net := newTestNet()
	l1 := net.AddLink("a", "b", mbps(10), 0, 10)
	l2 := net.AddLink("c", "d", mbps(10), 0, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("discontiguous path must panic")
		}
	}()
	net.Send(&Packet{Flow: 1, Size: 100, Path: []*Link{l1, l2}})
}

func TestDuplicateHandlerPanics(t *testing.T) {
	_, net := newTestNet()
	n := net.Node("x")
	n.Handle(1, func(*Packet) {})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate flow handler must panic")
		}
	}()
	n.Handle(1, func(*Packet) {})
}

func TestUnhandledFlowIsDiscarded(t *testing.T) {
	s, net := newTestNet()
	l := net.AddLink("a", "b", mbps(10), 0, 10)
	net.Send(&Packet{Flow: 77, Size: 100, Path: []*Link{l}})
	s.Run() // must not panic
	if net.Node("b").DeliveredLocal != 0 {
		t.Error("packet for unhandled flow must not count as delivered")
	}
}

func TestPathDelayAndNames(t *testing.T) {
	_, net := newTestNet()
	l1 := net.AddLink("a", "b", mbps(10), 10*time.Millisecond, 10)
	l2 := net.AddLink("b", "c", mbps(10), 20*time.Millisecond, 10)
	path := []*Link{l1, l2}
	if got := PathDelay(path); got != 30*time.Millisecond {
		t.Errorf("PathDelay = %v, want 30ms", got)
	}
	if got := PathNames(path); got != "a->b->c" {
		t.Errorf("PathNames = %q", got)
	}
	if PathNames(nil) != "" {
		t.Error("PathNames(nil) should be empty")
	}
}

func TestFindLinkAndDuplex(t *testing.T) {
	_, net := newTestNet()
	fwd, rev := net.AddDuplex("a", "b", mbps(10), time.Millisecond, 10)
	if net.FindLink("a", "b") != fwd || net.FindLink("b", "a") != rev {
		t.Error("FindLink did not return the duplex pair")
	}
	if net.FindLink("a", "z") != nil {
		t.Error("FindLink for a missing link should be nil")
	}
	if net.Nodes() != 2 {
		t.Errorf("Nodes() = %d, want 2", net.Nodes())
	}
}

// Property: a drop-tail queue never delivers more packets than its capacity
// admits per busy period, and conservation holds: sent = delivered + dropped.
func TestLinkConservationProperty(t *testing.T) {
	f := func(sizes []uint8, capRaw uint8) bool {
		capacity := int(capRaw%20) + 1
		s, net := newTestNet()
		l := net.AddLink("a", "b", mbps(5), time.Millisecond, capacity)
		delivered := 0
		net.Node("b").Handle(1, func(p *Packet) { delivered++ })
		sent := 0
		for _, sz := range sizes {
			if sz == 0 {
				continue
			}
			sent++
			net.Send(&Packet{Flow: 1, Size: int(sz) * 10, Path: []*Link{l}})
		}
		s.Run()
		st := l.Stats()
		return delivered == int(st.Delivered) &&
			sent == int(st.Enqueued+st.Dropped) &&
			delivered+int(st.Dropped) == sent &&
			st.MaxQueue <= capacity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBadLinkParamsPanic(t *testing.T) {
	_, net := newTestNet()
	for name, fn := range map[string]func(){
		"zero bandwidth": func() { net.AddLink("a", "b", 0, 0, 10) },
		"zero queue":     func() { net.AddLink("a", "b", 1000, 0, 0) },
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

// TestObserverAttachedMidRun pins what stays true when Observe is called
// while packets are serializing: every packet frees its queue slot exactly
// once, at its serialization-complete instant, whether or not anyone was
// listening when it was enqueued, and PacketEnqueued is reported for
// exactly the packets enqueued after the subscription.
func TestObserverAttachedMidRun(t *testing.T) {
	s, net := newTestNet()
	// 1000-byte packets at 8 Mbps serialize in 1 ms each.
	l := net.AddLink("a", "b", mbps(8), 10*time.Millisecond, 100)
	net.Node("b").Handle(1, func(*Packet) {})
	send := func(n int) {
		for i := 0; i < n; i++ {
			p := net.NewPacket()
			p.Flow, p.Size, p.Path = 1, 1000, []*Link{l}
			net.Send(p)
		}
	}
	obs := &recordObs{}

	send(3) // serialize at 1, 2, 3 ms, enqueued with nobody listening
	s.At(1500*time.Microsecond, func() {
		if l.QueueLen() != 2 || l.Stats().Dequeued != 1 {
			t.Errorf("at 1.5ms: queue %d, dequeued %d, want 2 and 1", l.QueueLen(), l.Stats().Dequeued)
		}
		net.Observe(obs)
		send(2) // serialize at 4 and 5 ms
	})
	s.At(4500*time.Microsecond, func() {
		if l.QueueLen() != 1 || l.Stats().Dequeued != 4 {
			t.Errorf("at 4.5ms: queue %d, dequeued %d, want 1 and 4", l.QueueLen(), l.Stats().Dequeued)
		}
		send(1) // serializes at 6 ms
		if l.QueueLen() != 2 || l.Stats().MaxQueue != 4 {
			t.Errorf("after the last send: queue %d, high-water %d, want 2 and 4", l.QueueLen(), l.Stats().MaxQueue)
		}
	})
	s.Run()

	if st := l.Stats(); l.QueueLen() != 0 || st.Dequeued != 6 || st.Delivered != 6 {
		t.Fatalf("queue %d, dequeued %d, delivered %d, want 0, 6, 6", l.QueueLen(), st.Dequeued, st.Delivered)
	}
	// Arrivals start at 11 ms, long after the subscription.
	if obs.enq != 3 || obs.del != 6 {
		t.Fatalf("observer heard %d enqueues and %d deliveries, want 3 and 6", obs.enq, obs.del)
	}
}

// TestObserversHearEveryEventInOrder: every subscriber hears every
// lifecycle event, repair custody included, in subscription order, and a
// link added after Observe inherits the subscribers.
func TestObserversHearEveryEventInOrder(t *testing.T) {
	s, net := newTestNet()
	early := net.AddLink("a", "b", mbps(8), time.Millisecond, 2)
	early.SetImpairment(NewDuplication(1, sim.NewRand(1)))
	type heard struct {
		sub, kind string
		l         *Link
		trace     uint64
	}
	var log []heard
	for _, sub := range []string{"first", "second"} {
		net.Observe(funcObs(func(kind string, l *Link, p *Packet) {
			log = append(log, heard{sub, kind, l, p.Trace})
		}))
	}
	late := net.AddLink("b", "c", mbps(8), time.Millisecond, 100)
	late.SetRepair(NewRepairBox(RepairConfig{HoldTimeout: 10 * time.Millisecond}))
	net.Node("c").Handle(1, func(*Packet) {})
	// The queue holds two, so seq 1 dies; seq 2 waits in the box.
	for _, seq := range []int64{0, 2, 1} {
		p := net.NewPacket()
		p.Flow, p.Size, p.Path = 1, 1000, []*Link{early, late}
		p.Payload = repairSeg{seq: seq}
		net.Send(p)
	}
	s.Run()

	if len(log) == 0 || len(log)%2 != 0 {
		t.Fatalf("heard %d callbacks, want a nonzero even count", len(log))
	}
	kinds := map[string]bool{}
	for i := 0; i < len(log); i += 2 {
		a, b := log[i], log[i+1]
		if a.sub != "first" || b.sub != "second" || a.kind != b.kind || a.l != b.l || a.trace != b.trace {
			t.Fatalf("callback %d is %s %s on %v for trace %d, then %s %s on %v for trace %d; want the first subscriber, then the second, on the same event",
				i, a.sub, a.kind, a.l, a.trace, b.sub, b.kind, b.l, b.trace)
		}
		kinds[a.kind] = true
		if a.l == late {
			kinds["late link"] = true
		}
	}
	for _, k := range []string{"sent", "enq", "del", "drop", "dup", "repair", "late link"} {
		if !kinds[k] {
			t.Errorf("no %q callback heard", k)
		}
	}
}

// TestTxTimeMatchesFormula: the remembered serialization time is the same
// float expression as computing it afresh, for every size, in any order of
// sizes, before and after a bandwidth change.
func TestTxTimeMatchesFormula(t *testing.T) {
	_, net := newTestNet()
	l := net.AddLink("a", "b", mbps(15), time.Millisecond, 10)
	check := func() {
		t.Helper()
		for size := 40; size <= 1500; size++ {
			want := time.Duration(float64(size*8) / float64(l.Bandwidth) * float64(time.Second))
			// Twice each, and the small size in between, so a value is read
			// both fresh and remembered.
			if a, b := l.TxTime(size), l.TxTime(size); a != want || b != want {
				t.Fatalf("TxTime(%d) at %d bps = %v then %v, want %v", size, l.Bandwidth, a, b, want)
			}
			if got := l.TxTime(40); got != time.Duration(float64(40*8)/float64(l.Bandwidth)*float64(time.Second)) {
				t.Fatalf("TxTime(40) at %d bps = %v after size %d", l.Bandwidth, got, size)
			}
		}
		if got := l.TxTime(0); got != 0 {
			t.Fatalf("TxTime(0) = %v", got)
		}
	}
	check()
	l.TxTime(1000)
	l.SetBandwidth(mbps(1.544))
	check()
	l.TxTime(0)
	l.SetBandwidth(mbps(622))
	check()
}
