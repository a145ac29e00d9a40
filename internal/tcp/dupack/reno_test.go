package dupack

import (
	"testing"
	"time"

	"tcppr/internal/sim"
	"tcppr/internal/tcp"
)

func TestRenoSlowStartDoublesPerRTT(t *testing.T) {
	h := newHarness()
	s := Reno(h.env(), Config{})
	s.Start()
	if got := len(h.take()); got != 1 {
		t.Fatalf("initial burst = %d segments, want 1 (initial cwnd 1)", got)
	}
	// Each ACK in slow start grows cwnd by 1 and releases 2 segments.
	s.OnAck(cum(1))
	if got := len(h.take()); got != 2 {
		t.Fatalf("after first ACK sent %d, want 2", got)
	}
	s.OnAck(cum(2))
	s.OnAck(cum(3))
	if got := len(h.take()); got != 4 {
		t.Fatalf("after two more ACKs sent %d, want 4", got)
	}
	if s.Cwnd() != 4 {
		t.Errorf("cwnd = %v, want 4", s.Cwnd())
	}
}

func TestRenoCongestionAvoidanceLinearGrowth(t *testing.T) {
	h := newHarness()
	s := Reno(h.env(), Config{})
	s.ssthresh = 4
	s.cwnd = 4
	s.Start()
	h.take()
	before := s.Cwnd()
	s.OnAck(cum(1))
	want := before + 1/before
	if s.Cwnd() != want {
		t.Errorf("CA growth: cwnd = %v, want %v", s.Cwnd(), want)
	}
}

func TestRenoFastRetransmitOnThirdDupAck(t *testing.T) {
	h := newHarness()
	s := Reno(h.env(), Config{})
	grow(t, h, s, 8, 0)
	una := s.Una()
	cwndBefore := s.Cwnd()

	// Three duplicate ACKs: echoes are the out-of-order arrivals.
	s.OnAck(dupAck(una, una+1))
	s.OnAck(dupAck(una, una+2))
	if s.InRecovery() {
		t.Fatal("entered recovery before the third duplicate")
	}
	s.OnAck(dupAck(una, una+3))
	if !s.InRecovery() {
		t.Fatal("third duplicate ACK must trigger fast retransmit")
	}
	var sawRetx bool
	for _, seg := range h.take() {
		if seg.Seq == una && seg.Retx {
			sawRetx = true
		}
	}
	if !sawRetx {
		t.Error("fast retransmit did not resend the lost segment")
	}
	if got, want := s.Ssthresh(), cwndBefore/2; got != want {
		t.Errorf("ssthresh = %v, want %v", got, want)
	}
	if s.FastRecoveries != 1 {
		t.Errorf("FastRecoveries = %d, want 1", s.FastRecoveries)
	}
}

func TestRenoRecoveryExitDeflatesWindow(t *testing.T) {
	h := newHarness()
	s := Reno(h.env(), Config{})
	grow(t, h, s, 8, 0)
	una := s.Una()
	for i := int64(1); i <= 3; i++ {
		s.OnAck(dupAck(una, una+i))
	}
	if !s.InRecovery() {
		t.Fatal("not in recovery")
	}
	// Full ACK past everything sent ends recovery at ssthresh.
	s.OnAck(cum(s.nextSeq))
	if s.InRecovery() {
		t.Error("full ACK must exit recovery")
	}
	if s.Cwnd() != s.Ssthresh() {
		t.Errorf("cwnd = %v after recovery, want ssthresh %v", s.Cwnd(), s.Ssthresh())
	}
}

func TestNewRenoPartialAckRetransmitsNextHole(t *testing.T) {
	h := newHarness()
	s := NewReno(h.env(), Config{})
	grow(t, h, s, 8, 0)
	una := s.Una()
	for i := int64(1); i <= 3; i++ {
		s.OnAck(dupAck(una, una+i))
	}
	if !s.InRecovery() {
		t.Fatal("not in recovery")
	}
	h.take()
	// Partial ACK: first hole filled, second hole at una+2.
	s.OnAck(cum(una + 2))
	if !s.InRecovery() {
		t.Error("NewReno must stay in recovery on a partial ACK")
	}
	var retxNext bool
	for _, seg := range h.take() {
		if seg.Seq == una+2 && seg.Retx {
			retxNext = true
		}
	}
	if !retxNext {
		t.Error("partial ACK did not retransmit the next hole")
	}
}

func TestClassicRenoExitsOnPartialAck(t *testing.T) {
	h := newHarness()
	s := Reno(h.env(), Config{})
	grow(t, h, s, 8, 0)
	una := s.Una()
	for i := int64(1); i <= 3; i++ {
		s.OnAck(dupAck(una, una+i))
	}
	s.OnAck(cum(una + 2))
	if s.InRecovery() {
		t.Error("classic Reno must exit recovery on any new ACK")
	}
}

func TestRenoTimeoutEntersSlowStart(t *testing.T) {
	h := newHarness()
	s := Reno(h.env(), Config{})
	grow(t, h, s, 8, 0)
	cwndBefore := s.Cwnd()
	h.take()
	// Let the retransmission timer fire once with data outstanding.
	if !h.sched.Step() {
		t.Fatal("no retransmission timer pending")
	}
	if s.Timeouts != 1 {
		t.Fatalf("Timeouts = %d, want 1 (cwnd was %v)", s.Timeouts, cwndBefore)
	}
	if s.Cwnd() != 1 {
		t.Errorf("cwnd after RTO = %v, want 1", s.Cwnd())
	}
	if got, want := s.Ssthresh(), cwndBefore/2; got != want {
		t.Errorf("ssthresh = %v, want %v", got, want)
	}
	segs := h.sent
	if len(segs) == 0 || !segs[0].Retx || segs[0].Seq != s.Una() {
		t.Error("timeout must retransmit the first unacked segment")
	}
}

func TestRenoTimerRestartedOnNewAck(t *testing.T) {
	h := newHarness()
	s := Reno(h.env(), Config{})
	s.Start()
	h.take()
	// An ACK arriving later must re-arm the timer at now + current RTO.
	h.sched.RunUntil(500 * time.Millisecond)
	s.OnAck(cum(1))
	if !s.rtxTimer.Pending() {
		t.Fatal("timer must stay armed while data is outstanding")
	}
	if want := h.sched.Now() + s.rto.RTO(); s.rtxTimer.At() != want {
		t.Errorf("timer deadline %v, want now+RTO = %v", s.rtxTimer.At(), want)
	}
}

func TestRenoLimitedTransmit(t *testing.T) {
	h := newHarness()
	s := Reno(h.env(), Config{})
	s.limitedTransmit = true
	grow(t, h, s, 4, 0)
	una := s.Una()
	s.OnAck(dupAck(una, una+1))
	if got := len(h.take()); got != 1 {
		t.Errorf("first dup ACK with limited transmit sent %d new segments, want 1", got)
	}
	s.OnAck(dupAck(una, una+2))
	if got := len(h.take()); got != 1 {
		t.Errorf("second dup ACK sent %d, want 1", got)
	}
	// Without limited transmit nothing may be sent on dup ACKs 1-2.
	h2 := newHarness()
	s2 := Reno(h2.env(), Config{})
	grow(t, h2, s2, 4, 0)
	una2 := s2.Una()
	s2.OnAck(dupAck(una2, una2+1))
	if got := len(h2.take()); got != 0 {
		t.Errorf("dup ACK without limited transmit sent %d segments, want 0", got)
	}
}

func TestRenoStaleAckIgnored(t *testing.T) {
	h := newHarness()
	s := Reno(h.env(), Config{})
	grow(t, h, s, 4, 0)
	cwnd, una := s.Cwnd(), s.Una()
	s.OnAck(cum(una - 1)) // reordered old ACK
	if s.Cwnd() != cwnd || s.Una() != una {
		t.Error("stale ACK mutated sender state")
	}
}

func TestRenoDupAckBeforeAnySendIgnored(t *testing.T) {
	h := newHarness()
	s := Reno(h.env(), Config{})
	// No data outstanding: a duplicate-looking ACK must be ignored.
	s.OnAck(tcp.Ack{CumAck: 0})
	if s.InRecovery() || s.dupacks != 0 {
		t.Error("ACK with nothing outstanding counted as duplicate")
	}
}

func TestRenoKarnNoSampleFromRetransmit(t *testing.T) {
	h := newHarness()
	s := Reno(h.env(), Config{})
	s.Start()
	h.take()
	// Time out seq 0, then ACK it: RTO must stay backed off (no sample).
	if !h.sched.Step() {
		t.Fatal("no retransmission timer pending")
	}
	if s.Timeouts == 0 {
		t.Fatal("expected a timeout")
	}
	rtoAfterTimeout := s.rto.RTO()
	s.OnAck(cum(1))
	if s.rto.RTO() != rtoAfterTimeout {
		t.Error("ACK of a retransmitted segment must not clear RTO backoff (Karn)")
	}
}

func TestRenoMaxCwndCap(t *testing.T) {
	h := newHarness()
	s := Reno(h.env(), Config{})
	s.maxCwnd = 4
	acked := grow(t, h, s, 4, 0)
	for i := int64(0); i < 10; i++ {
		s.OnAck(cum(acked + i + 1))
	}
	if s.Cwnd() > 4 {
		t.Errorf("cwnd = %v exceeded MaxCwnd 4", s.Cwnd())
	}
}

func TestRenoRTOBackoffSequence(t *testing.T) {
	h := newHarness()
	s := Reno(h.env(), Config{})
	s.Start()
	h.take()
	var fireTimes []sim.Time
	// Let three consecutive timeouts fire; intervals must double.
	for i := 0; i < 3; i++ {
		if !h.sched.Step() {
			t.Fatal("no timer pending")
		}
		fireTimes = append(fireTimes, h.sched.Now())
	}
	d1 := fireTimes[1] - fireTimes[0]
	d0 := fireTimes[0]
	if d1 <= d0 {
		t.Errorf("second timeout interval %v not longer than first %v", d1, d0)
	}
	d2 := fireTimes[2] - fireTimes[1]
	if d2 != 2*d1 {
		t.Errorf("third interval %v, want double %v", d2, d1)
	}
}
