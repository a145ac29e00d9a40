package dupack

import (
	"testing"
	"time"

	"tcppr/internal/tcp"
)

func TestSackSlowStart(t *testing.T) {
	h := newHarness()
	s := SACK(h.env(), Config{})
	s.Start()
	if len(h.take()) != 1 {
		t.Fatal("initial cwnd must be 1")
	}
	s.OnAck(cum(1))
	if s.Cwnd() != 2 {
		t.Errorf("cwnd = %v, want 2", s.Cwnd())
	}
}

func TestSackEntersRecoveryOnScoreboard(t *testing.T) {
	h := newHarness()
	s := SACK(h.env(), Config{})
	grow(t, h, s, 8, 0)
	una := s.Una()
	// Three SACKed segments above the hole.
	s.OnAck(sackAck(una, una+1, tcp.SackBlock{Start: una + 1, End: una + 2}))
	s.OnAck(sackAck(una, una+2, tcp.SackBlock{Start: una + 1, End: una + 3}))
	if s.InRecovery() {
		t.Fatal("recovery entered too early")
	}
	s.OnAck(sackAck(una, una+3, tcp.SackBlock{Start: una + 1, End: una + 4}))
	if !s.InRecovery() {
		t.Fatal("three SACKed segments must trigger recovery")
	}
	// The head hole must have been fast-retransmitted.
	var retxHead bool
	for _, seg := range h.take() {
		if seg.Seq == una && seg.Retx {
			retxHead = true
		}
	}
	if !retxHead {
		t.Error("head hole not retransmitted on recovery entry")
	}
	if s.FastRecoveries != 1 {
		t.Errorf("FastRecoveries = %d, want 1", s.FastRecoveries)
	}
}

func TestSackPipeLimitsRecoverySends(t *testing.T) {
	h := newHarness()
	s := SACK(h.env(), Config{})
	grow(t, h, s, 10, 0)
	una := s.Una()
	high := s.nextSeq
	flight := float64(high - una)
	// Enter recovery via three dup ACKs with SACK blocks.
	for i := int64(1); i <= 3; i++ {
		s.OnAck(sackAck(una, una+i, tcp.SackBlock{Start: una + 1, End: una + 1 + i}))
	}
	if !s.InRecovery() {
		t.Fatal("not in recovery")
	}
	// cwnd halves: pipe (roughly flight-3 sacked-1 lost) must gate new
	// sends so the burst is small.
	sent := h.take()
	if len(sent) > int(flight/2)+2 {
		t.Errorf("recovery entry burst of %d exceeds halved window (flight %v)", len(sent), flight)
	}
}

func TestSackRecoveryRetransmitsAllLostHoles(t *testing.T) {
	h := newHarness()
	s := SACK(h.env(), Config{})
	grow(t, h, s, 16, 0)
	una := s.Una()
	// Holes at una and una+4; everything else up to una+12 SACKed.
	s.OnAck(sackAck(una, una+1, tcp.SackBlock{Start: una + 1, End: una + 4}))
	s.OnAck(sackAck(una, una+5, tcp.SackBlock{Start: una + 5, End: una + 9}))
	s.OnAck(sackAck(una, una+9, tcp.SackBlock{Start: una + 5, End: una + 13}))
	if !s.InRecovery() {
		t.Fatal("not in recovery")
	}
	retx := map[int64]bool{}
	for _, seg := range h.take() {
		if seg.Retx {
			retx[seg.Seq] = true
		}
	}
	if !retx[una] {
		t.Error("hole at una not retransmitted")
	}
	if !retx[una+4] {
		t.Errorf("hole at una+4 not retransmitted; retx = %v", retx)
	}
}

func TestSackRecoveryExit(t *testing.T) {
	h := newHarness()
	s := SACK(h.env(), Config{})
	grow(t, h, s, 8, 0)
	una := s.Una()
	for i := int64(1); i <= 3; i++ {
		s.OnAck(sackAck(una, una+i, tcp.SackBlock{Start: una + 1, End: una + 1 + i}))
	}
	if !s.InRecovery() {
		t.Fatal("not in recovery")
	}
	s.OnAck(cum(s.nextSeq))
	if s.InRecovery() {
		t.Error("cumulative ACK past recover must end recovery")
	}
}

func TestSackTimeout(t *testing.T) {
	h := newHarness()
	s := SACK(h.env(), Config{})
	grow(t, h, s, 8, 0)
	cwndBefore := s.Cwnd()
	h.take()
	if !h.sched.Step() {
		t.Fatal("no timer pending")
	}
	if s.Timeouts != 1 {
		t.Fatalf("Timeouts = %d, want 1", s.Timeouts)
	}
	if s.Cwnd() != 1 {
		t.Errorf("cwnd = %v after RTO, want 1", s.Cwnd())
	}
	if got, want := s.Ssthresh(), cwndBefore/2; got != want {
		t.Errorf("ssthresh = %v, want %v", got, want)
	}
}

func TestSackStaleAckIgnored(t *testing.T) {
	h := newHarness()
	s := SACK(h.env(), Config{})
	grow(t, h, s, 4, 0)
	cwnd, una := s.Cwnd(), s.Una()
	s.OnAck(cum(una - 1))
	if s.Cwnd() != cwnd || s.Una() != una {
		t.Error("stale ACK mutated state")
	}
}

// spuriousEpisode drives the sender through a reordering-induced spurious
// fast retransmit and the subsequent DSACK, returning it for inspection.
func spuriousEpisode(t *testing.T, policy dupThreshPolicy) (*SACKSender, *harness, float64) {
	t.Helper()
	h := newHarness()
	s := dsack(h.env(), Config{}, policy)
	grow(t, h, s, 8, 0)
	una := s.Una()
	preCwnd := s.Cwnd()
	// Segment una is reordered, not lost: three dupacks trigger a
	// spurious fast retransmit.
	for i := int64(1); i <= 3; i++ {
		s.OnAck(sackAck(una, una+i, tcp.SackBlock{Start: una + 1, End: una + 1 + i}))
	}
	if !s.InRecovery() {
		t.Fatal("not in recovery")
	}
	h.take()
	// The original una arrives: cumulative ACK jumps past everything
	// SACKed; recovery ends.
	s.OnAck(cum(una + 4))
	// Then the retransmitted copy of una lands as a duplicate: DSACK.
	d := tcp.SackBlock{Start: una, End: una + 1}
	s.OnAck(tcp.Ack{CumAck: una + 4, EchoSeq: una, DSACK: &d})
	return s, h, preCwnd
}

func TestSackDSACKUndoRestoresSsthresh(t *testing.T) {
	s, _, preCwnd := spuriousEpisode(t, nm{})
	if s.SpuriousDetected != 1 {
		t.Fatalf("SpuriousDetected = %d, want 1", s.SpuriousDetected)
	}
	if s.Ssthresh() != preCwnd {
		t.Errorf("ssthresh = %v, want restored pre-recovery cwnd %v", s.Ssthresh(), preCwnd)
	}
	if s.Cwnd() >= preCwnd {
		t.Errorf("cwnd = %v must slow-start back up, not jump to %v", s.Cwnd(), preCwnd)
	}
}

func TestSackNoUndoWithoutPolicy(t *testing.T) {
	h := newHarness()
	s := SACK(h.env(), Config{})
	grow(t, h, s, 8, 0)
	una := s.Una()
	for i := int64(1); i <= 3; i++ {
		s.OnAck(sackAck(una, una+i, tcp.SackBlock{Start: una + 1, End: una + 1 + i}))
	}
	halved := s.Ssthresh()
	s.OnAck(cum(una + 4))
	d := tcp.SackBlock{Start: una, End: una + 1}
	s.OnAck(tcp.Ack{CumAck: una + 4, EchoSeq: una, DSACK: &d})
	if s.SpuriousDetected != 0 {
		t.Error("plain SACK must not react to DSACK")
	}
	if s.Ssthresh() != halved {
		t.Error("plain SACK must keep the halved ssthresh")
	}
}

func TestSackPolicyAdjustsDupThresh(t *testing.T) {
	s, _, _ := spuriousEpisode(t, inc1{})
	if s.dupThresh != 4 {
		t.Errorf("dupthresh = %d after Inc-by-1 spurious episode, want 4", s.dupThresh)
	}
}

func TestSackDupThreshFloorAtThree(t *testing.T) {
	lower := policyFunc(func(cur, n int) int { return 0 })
	s, _, _ := spuriousEpisode(t, lower)
	if s.dupThresh < 3 {
		t.Errorf("dupthresh = %d, must never fall below 3", s.dupThresh)
	}
}

type policyFunc func(cur, n int) int

func (f policyFunc) onSpurious(cur, n int) int { return f(cur, n) }

func TestSackExtendedLimitedTransmitKeepsClock(t *testing.T) {
	h := newHarness()
	s := DSACKNM(h.env(), Config{})
	s.dupThresh = 20
	grow(t, h, s, 8, 0)
	una := s.Una()
	// Far below the (raised) dupthresh, each dup ACK still releases one
	// new segment so the connection keeps moving under reordering.
	for i := int64(1); i <= 5; i++ {
		s.OnAck(sackAck(una, una+i, tcp.SackBlock{Start: una + 1, End: una + 1 + i}))
		if got := len(h.take()); got != 1 {
			t.Fatalf("dup ACK %d released %d segments, want 1", i, got)
		}
	}
	if s.InRecovery() {
		t.Error("recovery must not trigger below the raised dupthresh")
	}
}

func TestSackEffectiveDupThreshCappedByFlight(t *testing.T) {
	h := newHarness()
	s := SACK(h.env(), Config{})
	s.dupThresh = 50
	grow(t, h, s, 5, 0)
	una := s.Una()
	flight := int(s.nextSeq - s.Una())
	// SACK every outstanding segment except the head: recovery must
	// still trigger even though dupthresh (50) exceeds the flight.
	for i := 1; i < flight; i++ {
		s.OnAck(sackAck(una, una+int64(i), tcp.SackBlock{Start: una + 1, End: una + 1 + int64(i)}))
	}
	if !s.InRecovery() {
		t.Errorf("recovery never triggered with dupthresh 50 > flight %d", flight)
	}
}

func TestSackRTTSampleAndTimerRestart(t *testing.T) {
	h := newHarness()
	s := SACK(h.env(), Config{})
	s.Start()
	h.take()
	h.sched.RunUntil(80 * time.Millisecond)
	s.OnAck(cum(1))
	if s.SRTT() != 80*time.Millisecond {
		t.Errorf("SRTT = %v, want 80ms", s.SRTT())
	}
	if !s.rtxTimer.Pending() {
		t.Error("timer must be armed with data outstanding")
	}
}

func TestSackPartialDSACKDoesNotUndo(t *testing.T) {
	// Two segments retransmitted in one episode; only one is DSACKed.
	// The episode is not proven spurious, so the reduction must stand.
	h := newHarness()
	s := DSACKNM(h.env(), Config{})
	grow(t, h, s, 16, 0)
	una := s.Una()
	// Two holes: una and una+4, everything else SACKed.
	s.OnAck(sackAck(una, una+1, tcp.SackBlock{Start: una + 1, End: una + 4}))
	s.OnAck(sackAck(una, una+5, tcp.SackBlock{Start: una + 5, End: una + 9}))
	s.OnAck(sackAck(una, una+9, tcp.SackBlock{Start: una + 5, End: una + 13}))
	if !s.InRecovery() {
		t.Fatal("not in recovery")
	}
	halved := s.Ssthresh()
	// Recovery ends; one DSACK arrives for the first retransmitted hole
	// only.
	s.OnAck(cum(s.nextSeq))
	d := tcp.SackBlock{Start: una, End: una + 1}
	s.OnAck(tcp.Ack{CumAck: s.nextSeq, EchoSeq: una, DSACK: &d})
	if s.SpuriousDetected != 0 {
		t.Error("partial DSACK coverage must not declare the episode spurious")
	}
	if s.Ssthresh() != halved {
		t.Errorf("ssthresh = %v, want unchanged %v", s.Ssthresh(), halved)
	}
}
