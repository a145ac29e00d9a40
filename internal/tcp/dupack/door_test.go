package dupack

import (
	"testing"
	"time"

	"tcppr/internal/tcp"
)

func TestDoorDetectsOOOAcks(t *testing.T) {
	h := newHarness()
	s := DOOR(h.env(), Config{})
	grow(t, h, s, 6, 50*time.Millisecond)
	una := s.Una()
	// An ACK whose transmission-counter echo goes backwards signals
	// reordering on the reverse path.
	s.OnAck(tcp.Ack{CumAck: una, EchoSeq: una + 1, EchoTxSeq: 1})
	if s.OOOEvents != 1 {
		t.Fatalf("OOOEvents = %d, want 1", s.OOOEvents)
	}
}

func TestDoorDetectsReceiverReportedOOO(t *testing.T) {
	h := newHarness()
	s := DOOR(h.env(), Config{})
	grow(t, h, s, 6, 50*time.Millisecond)
	una := s.Una()
	s.OnAck(tcp.Ack{CumAck: una + 1, EchoSeq: una, OOO: true})
	if s.OOOEvents != 1 {
		t.Fatalf("OOOEvents = %d, want 1", s.OOOEvents)
	}
}

func TestDoorDisablesCongestionResponseDuringT1(t *testing.T) {
	h := newHarness()
	s := DOOR(h.env(), Config{})
	grow(t, h, s, 8, 50*time.Millisecond)
	una := s.Una()
	cwnd := s.Cwnd()
	// Reordering detected, then a burst of duplicate ACKs that would
	// normally trigger fast retransmit + halving.
	s.OnAck(tcp.Ack{CumAck: una, EchoSeq: una + 1, OOO: true})
	for i := int64(2); i <= 4; i++ {
		s.OnAck(tcp.Ack{CumAck: una, EchoSeq: una + i})
	}
	if s.Cwnd() < cwnd {
		t.Errorf("cwnd reduced during T1: %v -> %v", cwnd, s.Cwnd())
	}
	// The retransmission itself still happens (only the window change is
	// suppressed).
	var retx bool
	for _, seg := range h.take() {
		if seg.Retx && seg.Seq == una {
			retx = true
		}
	}
	if !retx {
		t.Error("fast retransmit suppressed entirely; only the reduction should be")
	}
}

func TestDoorInstantRecovery(t *testing.T) {
	h := newHarness()
	s := DOOR(h.env(), Config{})
	grow(t, h, s, 8, 50*time.Millisecond)
	una := s.Una()
	cwndBefore := s.Cwnd()
	// A (spurious) fast retransmit fires first...
	for i := int64(1); i <= 3; i++ {
		s.OnAck(tcp.Ack{CumAck: una, EchoSeq: una + i})
	}
	if !s.InRecovery() {
		t.Fatal("not in recovery")
	}
	// ...then reordering is detected within T2: the reduction must be
	// undone (ssthresh restored so slow start climbs back).
	h.sched.RunUntil(h.sched.Now() + 50*time.Millisecond)
	s.OnAck(tcp.Ack{CumAck: una + 4, EchoSeq: una, OOO: true})
	if s.InstantRecoveries != 1 {
		t.Fatalf("InstantRecoveries = %d, want 1", s.InstantRecoveries)
	}
	if s.Ssthresh() < cwndBefore {
		t.Errorf("ssthresh = %v after instant recovery, want >= pre-reduction cwnd %v",
			s.Ssthresh(), cwndBefore)
	}
}

func TestDoorNoInstantRecoveryAfterT2(t *testing.T) {
	h := newHarness()
	s := DOOR(h.env(), Config{})
	grow(t, h, s, 8, 50*time.Millisecond)
	una := s.Una()
	for i := int64(1); i <= 3; i++ {
		s.OnAck(tcp.Ack{CumAck: una, EchoSeq: una + i})
	}
	// The OOO event arrives long after T2 (but before the retransmission
	// timer creates a fresh reduction): the reduction stands.
	h.sched.RunUntil(h.sched.Now() + 900*time.Millisecond)
	s.OnAck(tcp.Ack{CumAck: una + 4, EchoSeq: una, OOO: true})
	if s.InstantRecoveries != 0 {
		t.Error("instant recovery fired outside the T2 window")
	}
}

func TestDoorIsPlainNewRenoWithoutReordering(t *testing.T) {
	h := newHarness()
	s := DOOR(h.env(), Config{})
	grow(t, h, s, 8, 50*time.Millisecond)
	if s.OOOEvents != 0 {
		t.Errorf("in-order run detected %d OOO events", s.OOOEvents)
	}
}
