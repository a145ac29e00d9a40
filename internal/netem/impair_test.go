package netem

import (
	"math"
	"testing"
	"time"

	"tcppr/internal/sim"
)

func TestLinkRandomLoss(t *testing.T) {
	s, net := newTestNet()
	l := net.AddLink("a", "b", mbps(100), 0, 1<<20)
	l.SetLoss(0.25, sim.NewRand(7))
	delivered := 0
	net.Node("b").Handle(1, func(*Packet) { delivered++ })
	const n = 20000
	dropped := 0
	for i := 0; i < n; i++ {
		if !net.Send(&Packet{Flow: 1, Size: 100, Path: []*Link{l}}) {
			dropped++
		}
		if i%512 == 0 {
			s.Run()
		}
	}
	s.Run()
	frac := float64(dropped) / n
	if math.Abs(frac-0.25) > 0.02 {
		t.Errorf("random loss fraction = %.3f, want ~0.25", frac)
	}
	if got := l.Stats().RandomDropped; int(got) != dropped {
		t.Errorf("RandomDropped = %d, want %d", got, dropped)
	}
	if delivered+dropped != n {
		t.Errorf("conservation: %d delivered + %d dropped != %d", delivered, dropped, n)
	}
	if got := l.Stats().DropRate(); math.Abs(got-frac) > 1e-9 {
		t.Errorf("DropRate = %v, want %v", got, frac)
	}
}

func TestLinkLossValidation(t *testing.T) {
	_, net := newTestNet()
	l := net.AddLink("a", "b", mbps(10), 0, 10)
	for name, fn := range map[string]func(){
		"prob > 1": func() { l.SetLoss(1.01, sim.NewRand(1)) },
		"prob < 0": func() { l.SetLoss(-0.1, sim.NewRand(1)) },
		"nil rng":  func() { l.SetLoss(0.5, nil) },
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
	l.SetLoss(0, nil) // disabling needs no RNG
	l.SetLoss(1, nil) // total loss is a valid interval state and needs no RNG
}

// TestLinkTotalLoss exercises probability 1: every offered packet dies to
// the loss process, none to the queue, and delivery stops entirely —
// the building block total-loss intervals in fault timelines rely on.
func TestLinkTotalLoss(t *testing.T) {
	s, net := newTestNet()
	l := net.AddLink("a", "b", mbps(10), 0, 10)
	l.SetLoss(1, nil)
	delivered := 0
	net.Node("b").Handle(1, func(*Packet) { delivered++ })
	for i := 0; i < 100; i++ {
		if net.Send(&Packet{Flow: 1, Size: 100, Path: []*Link{l}}) {
			t.Fatal("Send accepted a packet under total loss")
		}
	}
	s.Run()
	if delivered != 0 {
		t.Errorf("delivered %d packets under total loss", delivered)
	}
	if got := l.Stats().RandomDropped; got != 100 {
		t.Errorf("RandomDropped = %d, want 100", got)
	}
	l.SetLoss(0, nil)
	if !net.Send(&Packet{Flow: 1, Size: 100, Path: []*Link{l}}) {
		t.Error("Send rejected after the loss interval cleared")
	}
	s.Run()
	if delivered != 1 {
		t.Errorf("delivered %d after clearing total loss, want 1", delivered)
	}
}

func TestLinkJitterReordersPackets(t *testing.T) {
	s, net := newTestNet()
	// Tiny packets, large jitter: arrival order must scramble.
	l := net.AddLink("a", "b", mbps(1000), time.Millisecond, 1<<20)
	l.SetImpairment(NewJitter(10*time.Millisecond, sim.NewRand(3)))
	var order []uint64
	net.Node("b").Handle(1, func(p *Packet) { order = append(order, p.ID) })
	for i := 0; i < 200; i++ {
		net.Send(&Packet{Flow: 1, Size: 100, Path: []*Link{l}})
	}
	s.Run()
	if len(order) != 200 {
		t.Fatalf("delivered %d, want 200", len(order))
	}
	inversions := 0
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inversions++
		}
	}
	if inversions == 0 {
		t.Error("jitter larger than packet spacing must reorder deliveries")
	}
}

func TestLinkJitterBoundsDelay(t *testing.T) {
	s, net := newTestNet()
	l := net.AddLink("a", "b", mbps(10), 10*time.Millisecond, 100)
	l.SetImpairment(NewJitter(5*time.Millisecond, sim.NewRand(4)))
	var arrivals []sim.Time
	net.Node("b").Handle(1, func(*Packet) { arrivals = append(arrivals, s.Now()) })
	for i := 0; i < 50; i++ {
		at := sim.Time(i) * 20 * time.Millisecond
		s.At(at, func() {
			net.Send(&Packet{Flow: 1, Size: 1000, Path: []*Link{l}})
		})
	}
	s.Run()
	for i, a := range arrivals {
		sent := sim.Time(i) * 20 * time.Millisecond
		lat := a - sent
		lo := 800*time.Microsecond + 10*time.Millisecond
		hi := lo + 5*time.Millisecond
		if lat < lo || lat > hi {
			t.Fatalf("packet %d latency %v outside [%v,%v]", i, lat, lo, hi)
		}
	}
}

func TestREDDropsEarlyUnderSustainedLoad(t *testing.T) {
	s, net := newTestNet()
	// Sustained 2x overload (service 125 pps, arrivals 250 pps): the
	// averaged queue climbs slowly enough for RED to react before the
	// hard cap.
	l := net.AddLink("a", "b", mbps(1), 0, 100)
	red := NewRED(100, sim.NewRand(5))
	// A faster averaging weight so the test's short overload is inside
	// RED's reaction time (the classic 0.002 needs ~1/w packets).
	red.Weight = 0.02
	l.AttachRED(red)
	for i := 0; i < 4000; i++ {
		net.Send(&Packet{Flow: 1, Size: 1000, Path: []*Link{l}})
		s.RunUntil(s.Now() + 4*time.Millisecond)
	}
	// At sustained 2x overload the queue still saturates (RED's maximum
	// drop rate in the gentle region is below the 50% needed), but a
	// substantial share of the drops must be early/probabilistic ones
	// spread over time rather than pure tail drops.
	if red.EarlyDrops < 100 {
		t.Errorf("EarlyDrops = %d, want substantial early dropping", red.EarlyDrops)
	}
	if red.AvgQueue() <= 0 || red.AvgQueue() > 100 {
		t.Errorf("average queue %v not tracked sanely", red.AvgQueue())
	}
}

func TestREDAdmitsWhenIdle(t *testing.T) {
	red := NewRED(100, sim.NewRand(6))
	for i := 0; i < 100; i++ {
		if !red.Admit(0) {
			t.Fatal("RED dropped at zero queue")
		}
	}
	if red.EarlyDrops != 0 {
		t.Error("early drops at zero load")
	}
}

func TestREDFullRangeDropsEverything(t *testing.T) {
	red := NewRED(10, sim.NewRand(8))
	// Force the average far above 2*MaxTh.
	admitted := 0
	for i := 0; i < 10000; i++ {
		if red.Admit(40) {
			admitted++
		}
	}
	// Early on the average is still warming up; eventually everything
	// must be dropped. Check the steady tail.
	tailAdmitted := 0
	for i := 0; i < 1000; i++ {
		if red.Admit(40) {
			tailAdmitted++
		}
	}
	if tailAdmitted != 0 {
		t.Errorf("RED admitted %d packets with avg far beyond 2*MaxTh", tailAdmitted)
	}
}
