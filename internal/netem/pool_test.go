package netem

import (
	"testing"
	"time"

	"tcppr/internal/sim"
)

// TestPacketPoolReuseAfterDelivery proves the free list cycles: packets
// sent via NewPacket come back after local delivery, and a steady send/
// deliver rhythm keeps the pool at its peak concurrency, not at the total
// packet count.
func TestPacketPoolReuseAfterDelivery(t *testing.T) {
	s := sim.NewScheduler()
	net := NewNetwork(s)
	l := net.AddLink("a", "b", 10_000_000, time.Millisecond, 100)
	delivered := 0
	net.Node("b").Handle(1, func(*Packet) { delivered++ })

	var first *Packet
	for i := 0; i < 50; i++ {
		p := net.NewPacket()
		if i == 0 {
			first = p
		} else if p != first {
			t.Fatalf("send %d did not reuse the recycled packet slot", i)
		}
		p.Flow, p.Size, p.Path = 1, 1000, []*Link{l}
		if !net.Send(p) {
			t.Fatalf("send %d rejected", i)
		}
		s.Run() // drain: delivery recycles the packet
	}
	if delivered != 50 {
		t.Fatalf("delivered %d packets, want 50", delivered)
	}
	if got := net.PacketFreeListLen(); got != 1 {
		t.Errorf("free list holds %d packets after 50 send/deliver cycles, want 1", got)
	}
}

// TestPacketPoolReuseOnEnqueueDrop covers the other end of a packet's
// life: rejected at the first hop (blackout here), the packet must be
// recycled by Send itself.
func TestPacketPoolReuseOnEnqueueDrop(t *testing.T) {
	s := sim.NewScheduler()
	net := NewNetwork(s)
	l := net.AddLink("a", "b", 10_000_000, time.Millisecond, 100)
	l.SetDown(true)

	for i := 0; i < 10; i++ {
		p := net.NewPacket()
		p.Flow, p.Size, p.Path = 1, 1000, []*Link{l}
		if net.Send(p) {
			t.Fatal("Send accepted a packet on a downed link")
		}
	}
	if got := net.PacketFreeListLen(); got != 1 {
		t.Errorf("free list holds %d packets after 10 rejected sends, want 1", got)
	}
}

// TestPacketPoolUnderCorruption: corrupted packets consume their slot all
// the way to the far end and must still come back to the pool.
func TestPacketPoolUnderCorruption(t *testing.T) {
	s := sim.NewScheduler()
	net := NewNetwork(s)
	l := net.AddLink("a", "b", 10_000_000, time.Millisecond, 100)
	l.SetImpairment(NewCorruption(1.0, sim.NewRand(7)))
	net.Node("b").Handle(1, func(*Packet) { t.Fatal("corrupt packet delivered") })

	const n = 20
	for i := 0; i < n; i++ {
		p := net.NewPacket()
		p.Flow, p.Size, p.Path = 1, 1000, []*Link{l}
		net.Send(p)
		s.Run()
	}
	if got := l.Stats().Corrupted; got != n {
		t.Fatalf("corrupted %d packets, want %d", got, n)
	}
	if got := net.PacketFreeListLen(); got != 1 {
		t.Errorf("free list holds %d packets after %d corrupt deliveries, want 1", got, n)
	}
}

// TestPacketPoolUnderDuplication: the duplicate copy is drawn from the
// pool, lives independently of the original, and both recycle. With total
// duplication every send needs two slots, so the pool settles at two.
func TestPacketPoolUnderDuplication(t *testing.T) {
	s := sim.NewScheduler()
	net := NewNetwork(s)
	l1 := net.AddLink("a", "b", 10_000_000, time.Millisecond, 100)
	l2 := net.AddLink("b", "c", 10_000_000, time.Millisecond, 100)
	l1.SetImpairment(NewDuplication(1.0, sim.NewRand(9)))
	delivered := 0
	net.Node("c").Handle(1, func(p *Packet) {
		delivered++
		if p.Hops != 2 {
			t.Errorf("delivered packet crossed %d hops, want 2", p.Hops)
		}
	})

	const n = 25
	for i := 0; i < n; i++ {
		p := net.NewPacket()
		p.Flow, p.Size, p.Path = 1, 1000, []*Link{l1, l2}
		net.Send(p)
		s.Run()
	}
	if delivered != 2*n {
		t.Fatalf("delivered %d packets under total duplication, want %d", delivered, 2*n)
	}
	if got := net.PacketFreeListLen(); got != 2 {
		t.Errorf("free list holds %d packets, want 2 (original + duplicate)", got)
	}
}

// TestPacketPoolDoubleReleasePanics proves the debug-mode ownership check
// fires: recycling the same packet twice must panic rather than list the
// slot twice and alias two future in-flight packets.
func TestPacketPoolDoubleReleasePanics(t *testing.T) {
	s := sim.NewScheduler()
	net := NewNetwork(s)
	net.SetDebugPool(true)
	l := net.AddLink("a", "b", 10_000_000, time.Millisecond, 100)
	net.Node("b").Handle(1, func(*Packet) {})

	p := net.NewPacket()
	p.Flow, p.Size, p.Path = 1, 1000, []*Link{l}
	net.Send(p)
	s.Run() // delivery recycles p onto the free list

	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic with debug pool checking on")
		}
	}()
	net.release(p)
}

// TestPacketPoolZeroesRecycledPackets: a recycled packet must come back
// blank — leaking the previous occupant's route or payload through
// NewPacket would be a debugging nightmare.
func TestPacketPoolZeroesRecycledPackets(t *testing.T) {
	s := sim.NewScheduler()
	net := NewNetwork(s)
	l := net.AddLink("a", "b", 10_000_000, time.Millisecond, 100)
	net.Node("b").Handle(1, func(*Packet) {})

	p := net.NewPacket()
	p.Flow, p.Size, p.Path, p.Payload = 1, 1000, []*Link{l}, "secret"
	net.Send(p)
	s.Run()

	q := net.NewPacket()
	if q != p {
		t.Fatal("expected the recycled slot back")
	}
	if q.Flow != 0 || q.Size != 0 || q.Path != nil || q.Payload != nil || q.Hops != 0 || q.corrupt {
		t.Errorf("recycled packet not zeroed: %+v", q)
	}
}

// TestForwardingSteadyStateZeroAllocs pins the tentpole property end to
// end: with the pools primed, pushing a packet through a two-hop path —
// four scheduler events, two queue slots, one local delivery — allocates
// nothing.
func TestForwardingSteadyStateZeroAllocs(t *testing.T) {
	s := sim.NewScheduler()
	net := NewNetwork(s)
	l1 := net.AddLink("a", "b", 10_000_000, time.Millisecond, 100)
	l2 := net.AddLink("b", "c", 10_000_000, time.Millisecond, 100)
	net.Node("c").Handle(1, func(*Packet) {})
	path := []*Link{l1, l2}

	send := func() {
		p := net.NewPacket()
		p.Flow, p.Size, p.Path = 1, 1000, path
		if !net.Send(p) {
			t.Fatal("send rejected")
		}
		s.Run()
	}
	send() // prime the event and packet pools

	allocs := testing.AllocsPerRun(500, send)
	if allocs != 0 {
		t.Errorf("steady-state forwarding allocates %.1f objects/packet, want 0", allocs)
	}
}
