package netem

import (
	"testing"
	"time"

	"tcppr/internal/sim"
)

// TestHostDownRejectsEnqueue verifies the endpoint-churn drop path at
// admission: a link whose source or destination host is down rejects every
// enqueue, counts it under HostDownDropped (not the blackout counter), and
// reports DropHostDown to the observer.
func TestHostDownRejectsEnqueue(t *testing.T) {
	s, net := newTestNet()
	l := net.AddLink("a", "b", mbps(10), 5*time.Millisecond, 100)
	obs := &recordObs{}
	net.Observe(obs)
	delivered := 0
	net.Node("b").Handle(1, func(*Packet) { delivered++ })

	net.Node("b").SetDown(true)
	if l.Enqueue(&Packet{Flow: 1, Size: 1000, Path: []*Link{l}}) {
		t.Fatal("Enqueue accepted a packet toward a down host")
	}
	net.Node("b").SetDown(false)

	net.Node("a").SetDown(true)
	if l.Enqueue(&Packet{Flow: 1, Size: 1000, Path: []*Link{l}}) {
		t.Fatal("Enqueue accepted a packet from a down host")
	}
	net.Node("a").SetDown(false)

	s.Run()
	if delivered != 0 {
		t.Errorf("delivered %d packets through down hosts, want 0", delivered)
	}
	st := l.Stats()
	if st.HostDownDropped != 2 {
		t.Errorf("HostDownDropped = %d, want 2", st.HostDownDropped)
	}
	if st.BlackoutDropped != 0 {
		t.Errorf("host-down drops leaked into BlackoutDropped = %d", st.BlackoutDropped)
	}
	if len(obs.drops) != 2 || obs.drops[0] != DropHostDown || obs.drops[1] != DropHostDown {
		t.Errorf("observer drops = %v, want two DropHostDown", obs.drops)
	}
	if DropHostDown.String() != "host_down" {
		t.Errorf("DropHostDown.String() = %q, want host_down", DropHostDown)
	}

	// Both hosts restored: the link works again.
	if !net.Send(&Packet{Flow: 1, Size: 1000, Path: []*Link{l}}) {
		t.Fatal("Send rejected after hosts restored")
	}
	s.Run()
	if delivered != 1 {
		t.Errorf("delivered %d after restore, want 1", delivered)
	}
}

// TestHostDownKillsInFlight verifies the deliver-side check: packets
// already serialized onto the wire when the destination host dies are
// dropped on arrival (a dead host ingests nothing), counted and reported,
// and never handed to the handler.
func TestHostDownKillsInFlight(t *testing.T) {
	s, net := newTestNet()
	l := net.AddLink("a", "b", mbps(10), 10*time.Millisecond, 100)
	obs := &recordObs{}
	net.Observe(obs)
	delivered := 0
	net.Node("b").Handle(1, func(*Packet) { delivered++ })

	for i := 0; i < 3; i++ {
		if !net.Send(&Packet{Flow: 1, Size: 1000, Path: []*Link{l}}) {
			t.Fatal("Send rejected on a healthy link")
		}
	}
	// Kill the destination while all three are in flight (delay is 10 ms).
	s.At(sim.Time(5*time.Millisecond), func() { net.Node("b").SetDown(true) })
	s.Run()

	if delivered != 0 {
		t.Errorf("dead host ingested %d packets, want 0", delivered)
	}
	if got := l.Stats().HostDownDropped; got != 3 {
		t.Errorf("HostDownDropped = %d, want 3", got)
	}
	for i, c := range obs.drops {
		if c != DropHostDown {
			t.Errorf("drop %d cause = %v, want DropHostDown", i, c)
		}
	}
	if len(obs.drops) != 3 {
		t.Errorf("observer saw %d drops, want 3", len(obs.drops))
	}
	// Reboot: counters and handlers survive, delivery resumes.
	net.Node("b").SetDown(false)
	if !net.Send(&Packet{Flow: 1, Size: 1000, Path: []*Link{l}}) {
		t.Fatal("Send rejected after reboot")
	}
	s.Run()
	if delivered != 1 {
		t.Errorf("delivered %d after reboot, want 1", delivered)
	}
}
