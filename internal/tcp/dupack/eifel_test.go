package dupack

import (
	"testing"
	"time"

	"tcppr/internal/sim"
	"tcppr/internal/tcp"
)

// spuriousRetransmit drives the sender into a reordering-induced fast
// retransmit and returns (pre-reduction cwnd, send stamp of the original
// transmission of the delayed segment).
func spuriousRetransmit(t *testing.T, h *harness, s *EifelSender) (float64, sim.Time, int64) {
	t.Helper()
	grow(t, h, s, 8, 50*time.Millisecond)
	una := s.Una()
	preCwnd := s.Cwnd()
	// Segment una was sent during grow with some stamp < now. Use a
	// stamp well before the retransmission below as its original send
	// time.
	origStamp := h.sched.Now() - 40*time.Millisecond
	for i := int64(1); i <= 3; i++ {
		s.OnAck(tcp.Ack{CumAck: una, EchoSeq: una + i})
	}
	if !s.InRecovery() {
		t.Fatal("not in recovery after three duplicates")
	}
	return preCwnd, origStamp, una
}

func TestEifelDetectsSpuriousRetransmit(t *testing.T) {
	h := newHarness()
	s := Eifel(h.env(), Config{})
	preCwnd, origStamp, una := spuriousRetransmit(t, h, s)
	// The delayed original arrives at the receiver; its ACK echoes the
	// ORIGINAL timestamp, which predates the retransmission.
	h.sched.RunUntil(h.sched.Now() + 10*time.Millisecond)
	s.OnAck(tcp.Ack{CumAck: una + 4, EchoSeq: una, EchoStamp: origStamp})
	if s.SpuriousDetected != 1 {
		t.Fatalf("SpuriousDetected = %d, want 1", s.SpuriousDetected)
	}
	if s.Ssthresh() < preCwnd {
		t.Errorf("ssthresh = %v, want restored to >= %v", s.Ssthresh(), preCwnd)
	}
	if s.InRecovery() {
		t.Error("recovery must be abandoned after spurious detection")
	}
}

func TestEifelIgnoresGenuineLoss(t *testing.T) {
	h := newHarness()
	s := Eifel(h.env(), Config{})
	_, _, una := spuriousRetransmit(t, h, s)
	// Find the retransmission's stamp: the ACK echoing it (or anything
	// not older) means the retransmitted copy arrived — genuine loss.
	var retxStamp sim.Time
	for _, seg := range h.take() {
		if seg.Retx && seg.Seq == una {
			retxStamp = seg.Stamp
		}
	}
	halved := s.Ssthresh()
	h.sched.RunUntil(h.sched.Now() + 10*time.Millisecond)
	s.OnAck(tcp.Ack{CumAck: una + 4, EchoSeq: una, EchoStamp: retxStamp})
	if s.SpuriousDetected != 0 {
		t.Error("genuine loss flagged as spurious")
	}
	if s.Ssthresh() != halved {
		t.Errorf("ssthresh changed from %v to %v on genuine loss", halved, s.Ssthresh())
	}
}

func TestEifelArmsOncePerReduction(t *testing.T) {
	h := newHarness()
	s := Eifel(h.env(), Config{})
	_, origStamp, una := spuriousRetransmit(t, h, s)
	h.sched.RunUntil(h.sched.Now() + 10*time.Millisecond)
	s.OnAck(tcp.Ack{CumAck: una + 4, EchoSeq: una, EchoStamp: origStamp})
	if s.SpuriousDetected != 1 {
		t.Fatal("first detection missed")
	}
	// A second old-stamped ACK must not double-restore.
	s.OnAck(tcp.Ack{CumAck: una + 5, EchoSeq: una + 1, EchoStamp: origStamp})
	if s.SpuriousDetected != 1 {
		t.Error("Eifel fired twice for one reduction")
	}
}
