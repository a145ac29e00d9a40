package dupack

import (
	"testing"
	"time"
)

func TestTDFRDelaysFastRetransmit(t *testing.T) {
	h := newHarness()
	s := TDFR(h.env(), Config{})
	grow(t, h, s, 8, 100*time.Millisecond)
	una := s.Una()
	t0 := h.sched.Now()

	// Three rapid duplicate ACKs: classic Reno would retransmit at the
	// third; TD-FR must wait for max(RTT/2, DT).
	s.OnAck(dupAck(una, una+1))
	h.sched.RunUntil(t0 + 2*time.Millisecond)
	s.OnAck(dupAck(una, una+2))
	h.sched.RunUntil(t0 + 4*time.Millisecond)
	s.OnAck(dupAck(una, una+3)) // DT = 4ms << SRTT/2 = 50ms
	if s.InRecovery() {
		t.Fatal("TD-FR retransmitted immediately on the third dup ACK")
	}
	// Not yet at t0+49ms...
	h.sched.RunUntil(t0 + 49*time.Millisecond)
	if s.InRecovery() {
		t.Fatal("TD-FR fired before RTT/2 elapsed")
	}
	// ...but by t0+51ms the timer fires.
	h.sched.RunUntil(t0 + 51*time.Millisecond)
	if !s.InRecovery() {
		t.Fatal("TD-FR did not fire after RTT/2 of persistent duplicates")
	}
}

func TestTDFRCancelledByCumAckAdvance(t *testing.T) {
	h := newHarness()
	s := TDFR(h.env(), Config{})
	grow(t, h, s, 8, 100*time.Millisecond)
	una := s.Una()
	t0 := h.sched.Now()
	for i := int64(1); i <= 3; i++ {
		s.OnAck(dupAck(una, una+i))
	}
	// The "missing" packet was only reordered; it arrives before the
	// timer expires and the cumulative ACK advances.
	h.sched.RunUntil(t0 + 20*time.Millisecond)
	s.OnAck(cum(una + 4))
	h.sched.RunUntil(t0 + 200*time.Millisecond)
	if s.FastRecoveries != 0 {
		t.Error("TD-FR fired despite the cumulative ACK advancing in time")
	}
}

func TestTDFRUsesDupAckSpacingWhenLarge(t *testing.T) {
	h := newHarness()
	s := TDFR(h.env(), Config{})
	grow(t, h, s, 8, 100*time.Millisecond)
	una := s.Una()
	t0 := h.sched.Now()
	// DT = 80ms > SRTT/2 = 50ms: the deadline must be t0+80ms.
	s.OnAck(dupAck(una, una+1))
	h.sched.RunUntil(t0 + 40*time.Millisecond)
	s.OnAck(dupAck(una, una+2))
	h.sched.RunUntil(t0 + 80*time.Millisecond)
	s.OnAck(dupAck(una, una+3))
	// The third dup arrived exactly at the extended deadline: fires now.
	if !s.InRecovery() {
		h.sched.RunUntil(t0 + 81*time.Millisecond)
		if !s.InRecovery() {
			t.Fatal("TD-FR did not fire at the DT deadline")
		}
	}
}

func TestTDFRIsNewRenoWithLimitedTransmit(t *testing.T) {
	h := newHarness()
	s := TDFR(h.env(), Config{})
	grow(t, h, s, 4, 100*time.Millisecond)
	una := s.Una()
	// Limited transmit: the first dup ACK releases one new segment.
	s.OnAck(dupAck(una, una+1))
	if got := len(h.take()); got != 1 {
		t.Errorf("first dup ACK released %d segments, want 1 (limited transmit)", got)
	}
}
