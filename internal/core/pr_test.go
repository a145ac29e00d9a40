package core

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"tcppr/internal/sim"
	"tcppr/internal/tcp"
)

// harness drives a TCP-PR sender directly with scripted ACKs.
type harness struct {
	sched *sim.Scheduler
	sent  []tcp.Seg
}

func newHarness() *harness { return &harness{sched: sim.NewScheduler()} }

func (h *harness) env() tcp.SenderEnv {
	return tcp.SenderEnv{
		Sched: h.sched,
		Transmit: func(seg tcp.Seg) bool {
			h.sent = append(h.sent, seg)
			return true
		},
	}
}

func (h *harness) take() []tcp.Seg {
	out := h.sent
	h.sent = nil
	return out
}

func cum(n int64) tcp.Ack { return tcp.Ack{CumAck: n, EchoSeq: n - 1} }

func TestNewtonRootApproximatesPower(t *testing.T) {
	cases := []struct {
		alpha, cwnd float64
	}{
		{0.995, 1}, {0.995, 2}, {0.995, 10}, {0.995, 100}, {0.995, 1000},
		{0.5, 1}, {0.5, 4}, {0.5, 64},
		{0.9, 7},
	}
	for _, c := range cases {
		exact := math.Pow(c.alpha, 1/c.cwnd)
		approx := NewtonRoot(c.alpha, c.cwnd, 2)
		if rel := math.Abs(approx-exact) / exact; rel > 0.02 {
			t.Errorf("NewtonRoot(%v, %v, 2) = %v, exact %v (rel err %.4f)",
				c.alpha, c.cwnd, approx, exact, rel)
		}
	}
}

func TestNewtonRootConvergesWithIterations(t *testing.T) {
	alpha, cwnd := 0.5, 10.0
	exact := math.Pow(alpha, 1/cwnd)
	prevErr := math.Inf(1)
	for n := 1; n <= 6; n++ {
		err := math.Abs(NewtonRoot(alpha, cwnd, n) - exact)
		if err > prevErr+1e-15 {
			t.Fatalf("Newton error grew at n=%d: %v -> %v", n, prevErr, err)
		}
		prevErr = err
	}
	if prevErr > 1e-9 {
		t.Errorf("Newton after 6 iterations still off by %v", prevErr)
	}
}

// Property: α^(1/cwnd) decayed cwnd times per RTT yields α per RTT, i.e.
// NewtonRoot(α,w,·)^w ≈ α — the paper's stated design invariant.
func TestNewtonPerRTTDecayProperty(t *testing.T) {
	f := func(aRaw, wRaw uint8) bool {
		alpha := 0.05 + 0.94*float64(aRaw)/255 // (0.05, 0.99)
		w := 1 + float64(wRaw%64)
		x := NewtonRoot(alpha, w, 3)
		perRTT := math.Pow(x, w)
		return math.Abs(perRTT-alpha) < 0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPRSlowStartGrowth(t *testing.T) {
	h := newHarness()
	s := New(h.env(), Config{MaxBurst: -1})
	s.Start()
	if got := len(h.take()); got != 1 {
		t.Fatalf("initial burst = %d, want 1", got)
	}
	s.OnAck(cum(1))
	if s.Cwnd() != 2 {
		t.Errorf("cwnd after first ACK = %v, want 2", s.Cwnd())
	}
	if got := len(h.take()); got != 2 {
		t.Errorf("sent %d after first ACK, want 2", got)
	}
	if s.Mode() != SlowStart {
		t.Errorf("mode = %v, want slow-start", s.Mode())
	}
}

func TestPRIgnoresDuplicateAcks(t *testing.T) {
	h := newHarness()
	s := New(h.env(), Config{MaxBurst: -1})
	s.Start()
	h.take()
	s.OnAck(cum(1))
	h.take()
	state := s.Cwnd()
	// A flood of duplicate ACKs (the fast-retransmit trigger for
	// standard TCP) must cause no retransmission and no window change.
	// Each duplicate may release at most one NEW segment (flight
	// accounting — a duplicate proves a delivery), never a resend.
	for i := 0; i < 50; i++ {
		s.OnAck(tcp.Ack{CumAck: 1, EchoSeq: 5})
	}
	if s.Cwnd() != state {
		t.Errorf("duplicate ACKs changed cwnd: %v -> %v", state, s.Cwnd())
	}
	sent := h.take()
	if len(sent) > 50 {
		t.Errorf("%d transmissions for 50 duplicates, want at most one new segment each", len(sent))
	}
	for _, seg := range sent {
		if seg.Retx {
			t.Fatalf("duplicate ACKs triggered a retransmission of seq %d", seg.Seq)
		}
	}
	if s.Halvings != 0 {
		t.Errorf("duplicate ACKs caused %d halvings", s.Halvings)
	}
}

func TestPREwrttTracksMaximum(t *testing.T) {
	h := newHarness()
	s := New(h.env(), Config{MaxBurst: -1})
	s.Start()
	h.take()
	h.sched.RunUntil(100 * time.Millisecond)
	s.OnAck(cum(1)) // sample = 100ms
	if s.Ewrtt() != 100*time.Millisecond {
		t.Fatalf("first sample ewrtt = %v, want 100ms", s.Ewrtt())
	}
	if s.Mxrtt() != 300*time.Millisecond {
		t.Fatalf("mxrtt = %v, want beta*ewrtt = 300ms", s.Mxrtt())
	}
	// A larger sample replaces ewrtt immediately (max-tracking). Seq 1
	// was sent at t=100ms; ACK it at t=390ms (before its 400ms deadline).
	h.sched.RunUntil(390 * time.Millisecond)
	s.OnAck(cum(2))
	if s.Ewrtt() != 290*time.Millisecond {
		t.Fatalf("ewrtt = %v after larger sample, want 290ms", s.Ewrtt())
	}
	h.take()
	// Seq 2 (sent at 100ms) acked at 400ms: an even larger sample.
	h.sched.RunUntil(399 * time.Millisecond)
	s.OnAck(cum(3))
	before := s.Ewrtt()
	if before != 299*time.Millisecond {
		t.Fatalf("ewrtt = %v, want 299ms", before)
	}
	h.take()
	// A tiny sample (packets sent at 390ms, acked at 405ms) only decays
	// ewrtt by alpha^(1/cwnd).
	h.sched.RunUntil(405 * time.Millisecond)
	s.OnAck(cum(4))
	if s.Ewrtt() >= before {
		t.Errorf("ewrtt did not decay: %v -> %v", before, s.Ewrtt())
	}
	if float64(s.Ewrtt()) < float64(before)*0.99 {
		t.Errorf("ewrtt decayed too fast in one ACK: %v -> %v", before, s.Ewrtt())
	}
}

// lose drives the sender to a timer-detected drop of the oldest packet by
// acking everything except seq `hole` and letting virtual time pass.
func TestPRTimerDropHalvesFromSendTimeCwnd(t *testing.T) {
	h := newHarness()
	s := New(h.env(), Config{MaxBurst: -1})
	s.Start()
	h.take()
	h.sched.RunUntil(50 * time.Millisecond)
	s.OnAck(cum(1)) // ewrtt=50ms, mxrtt=150ms, cwnd=2, sends 1,2
	sent := h.take()
	if len(sent) != 2 {
		t.Fatalf("sent %d, want 2", len(sent))
	}
	cwndAtSend := s.Cwnd() // seq 1 and 2 sent with cwnd 2
	if cwndAtSend != 2 {
		t.Fatalf("cwnd = %v, want 2", cwndAtSend)
	}
	// Both seqs 1 and 2 share the 50ms+150ms = 200ms deadline. Seq 1's
	// timer fires first: halve from cwnd-at-send and memorize seq 2,
	// whose own timer re-arms one grace period past the retransmission
	// (it cannot be acknowledged while the hole is outstanding).
	h.sched.RunUntil(210 * time.Millisecond)
	if s.DropsDetected != 1 {
		t.Fatalf("DropsDetected = %d, want 1", s.DropsDetected)
	}
	if s.Halvings != 1 {
		t.Fatalf("Halvings = %d, want 1", s.Halvings)
	}
	if s.Cwnd() != 1 {
		t.Errorf("cwnd = %v, want cwnd(n)/2 = 1", s.Cwnd())
	}
	if s.Mode() != CongestionAvoidance {
		t.Errorf("mode = %v, want congestion-avoidance", s.Mode())
	}
	if s.MemorizeLen() != 1 {
		t.Errorf("memorize len = %d, want 1 (seq 2)", s.MemorizeLen())
	}
	var retx int
	for _, seg := range h.take() {
		if seg.Retx {
			retx++
		}
	}
	if retx != 1 {
		t.Errorf("retransmitted %d, want 1", retx)
	}
	// Seq 2 times out one grace period after the retransmission
	// (200ms + 150ms): memorized, so no second halving.
	h.sched.RunUntil(360 * time.Millisecond)
	if s.DropsDetected < 2 {
		t.Fatalf("memorized packet never timed out: drops = %d", s.DropsDetected)
	}
	if s.Halvings != 1 {
		t.Errorf("Halvings = %d after burst, want 1 (memorize must absorb it)", s.Halvings)
	}
}

func TestPRMemorizeClearedByAcks(t *testing.T) {
	h := newHarness()
	s := New(h.env(), Config{MaxBurst: -1})
	s.Start()
	h.take()
	h.sched.RunUntil(50 * time.Millisecond)
	s.OnAck(cum(1)) // ewrtt=50ms, mxrtt=150ms; sends 1,2 at t=50ms
	h.take()
	// Stagger: ack seq 1 early so seqs 3,4 are sent at t=60ms while
	// seq 2 keeps its t=200ms deadline.
	h.sched.RunUntil(60 * time.Millisecond)
	s.OnAck(cum(2))
	h.take()
	// Only seq 2 drops at 200ms (3 and 4 would drop at ~210ms).
	h.sched.RunUntil(205 * time.Millisecond)
	if s.DropsDetected != 1 {
		t.Fatalf("DropsDetected = %d, want 1", s.DropsDetected)
	}
	if s.MemorizeLen() != 2 {
		t.Fatalf("memorize len = %d, want 2 (seqs 3,4)", s.MemorizeLen())
	}
	// The memorized packets are acked: memorize empties via acks.
	s.OnAck(cum(5))
	if s.MemorizeLen() != 0 {
		t.Errorf("memorize len = %d after ack, want 0", s.MemorizeLen())
	}
}

func TestPRRetransmitQueueClearedByCumAck(t *testing.T) {
	h := newHarness()
	s := New(h.env(), Config{MaxBurst: -1})
	s.Start()
	h.take()
	h.sched.RunUntil(50 * time.Millisecond)
	s.OnAck(cum(1))
	h.take()
	// Time out both outstanding packets (they are queued for retx and
	// retransmitted immediately because the window allows it).
	h.sched.RunUntil(300 * time.Millisecond)
	retxSegs := h.take()
	if len(retxSegs) == 0 {
		t.Fatal("expected retransmissions")
	}
	// The "lost" packets were merely delayed: a cumulative ACK covering
	// them arrives. The sender must accept it and carry on.
	s.OnAck(cum(3))
	if s.Una() != 3 {
		t.Errorf("una = %d, want 3", s.Una())
	}
	for _, seg := range h.take() {
		if seg.Retx {
			t.Errorf("sent retransmission %d after cumulative ACK covered it", seg.Seq)
		}
	}
}

// growWithRTT drives the sender to the target window with a fixed
// simulated RTT so ewrtt/mxrtt take realistic values.
func growWithRTT(t *testing.T, h *harness, s *Sender, n float64, rtt time.Duration) int64 {
	t.Helper()
	s.Start()
	acked := int64(0)
	for s.Cwnd() < n {
		segs := h.take()
		if len(segs) == 0 {
			t.Fatal("sender stalled during growth")
		}
		h.sched.RunUntil(h.sched.Now() + rtt)
		for range segs {
			acked++
			s.OnAck(cum(acked))
		}
	}
	h.take()
	return acked
}

func TestPRTotalSilenceBacksOffExponentially(t *testing.T) {
	h := newHarness()
	s := New(h.env(), Config{MaxBurst: -1})
	growWithRTT(t, h, s, 8, 50*time.Millisecond)
	// The path goes dark: no ACK ever arrives again (§3.2's extreme-loss
	// regime). The sender must wind down to one-segment probing with an
	// exponentially growing threshold, never exceeding the cap.
	h.sched.RunUntil(h.sched.Now() + 120*time.Second)
	if s.Cwnd() > 1 {
		t.Errorf("cwnd = %v after total silence, want <= 1", s.Cwnd())
	}
	if s.Mxrtt() < time.Second {
		t.Errorf("mxrtt = %v, want >= 1s coarse-timer floor", s.Mxrtt())
	}
	if s.Mxrtt() > DefaultTestMaxBackoff {
		t.Errorf("mxrtt = %v exceeded the back-off cap", s.Mxrtt())
	}
	if s.DropsDetected < 8 {
		t.Errorf("DropsDetected = %d, want >= the lost window", s.DropsDetected)
	}
}

// DefaultTestMaxBackoff mirrors the package default MaxBackoff.
const DefaultTestMaxBackoff = 64 * time.Second

func TestPRBackoffDoublesMxrtt(t *testing.T) {
	h := newHarness()
	s := New(h.env(), Config{MaxBurst: -1})
	growWithRTT(t, h, s, 8, 50*time.Millisecond)
	// Silence until the sender is down to one segment.
	deadline := h.sched.Now() + 60*time.Second
	for s.Cwnd() > 1 && h.sched.Now() < deadline {
		if !h.sched.Step() {
			break
		}
	}
	if s.Cwnd() > 1 {
		t.Fatal("sender never wound down to one segment")
	}
	m1 := s.Mxrtt()
	// Further silent losses at cwnd <= 1 must double mxrtt, not shrink
	// the window further.
	h.sched.RunUntil(h.sched.Now() + 4*m1 + 10*time.Second)
	if s.Mxrtt() < 2*m1 {
		t.Errorf("mxrtt = %v after repeated loss at cwnd 1, want >= %v", s.Mxrtt(), 2*m1)
	}
	if s.Cwnd() > 1 {
		t.Errorf("cwnd = %v during back-off, want <= 1", s.Cwnd())
	}
}

func TestPRExtremeLossOnRevealedBurst(t *testing.T) {
	h := newHarness()
	s := New(h.env(), Config{MaxBurst: -1})
	acked := growWithRTT(t, h, s, 8, 50*time.Millisecond)
	// Most of the window is lost but the receiver stays alive: duplicate
	// ACKs keep arriving and reveal the head hole each time its deadline
	// expires. Enough revealed burst drops must trigger the §3.2 reset.
	for i := 0; i < 40 && s.ExtremeEvents == 0; i++ {
		h.sched.RunUntil(h.sched.Now() + s.Mxrtt() + time.Millisecond)
		s.OnAck(tcp.Ack{CumAck: acked, EchoSeq: acked})
		h.take()
	}
	if s.ExtremeEvents == 0 {
		t.Fatal("persistent revealed burst drops never triggered extreme-loss handling")
	}
	if s.Mxrtt() < time.Second {
		t.Errorf("mxrtt = %v after extreme loss, want >= 1s", s.Mxrtt())
	}
	if s.Mode() != SlowStart {
		t.Errorf("mode = %v after extreme loss, want slow-start", s.Mode())
	}
}

func TestPRSelfClocking(t *testing.T) {
	h := newHarness()
	s := New(h.env(), Config{MaxBurst: -1})
	s.Start()
	h.take()
	s.OnAck(cum(1))
	// cwnd=2: exactly 2 in flight; no more sends until an ACK.
	if s.InFlight() != 2 {
		t.Fatalf("in flight = %d, want 2", s.InFlight())
	}
	if len(h.take()) != 2 {
		t.Fatal("window not filled")
	}
	if got := len(h.take()); got != 0 {
		t.Errorf("sent %d without ACK clock", got)
	}
}

func TestPRCongestionAvoidanceLinear(t *testing.T) {
	h := newHarness()
	s := New(h.env(), Config{MaxBurst: -1})
	s.mode = CongestionAvoidance
	s.cwnd, s.ssthr = 4, 4
	s.Start()
	h.take()
	before := s.Cwnd()
	s.OnAck(cum(1))
	if want := before + 1/before; math.Abs(s.Cwnd()-want) > 1e-12 {
		t.Errorf("CA growth: %v -> %v, want %v", before, s.Cwnd(), want)
	}
}

func TestPRSlowStartToCAOnSsthr(t *testing.T) {
	h := newHarness()
	s := New(h.env(), Config{MaxBurst: -1})
	s.ssthr = 2
	s.Start()
	h.take()
	s.OnAck(cum(1)) // cwnd 1 -> ssthr reached: 1+1<=2 -> cwnd=2
	if s.Cwnd() != 2 || s.Mode() != SlowStart {
		t.Fatalf("cwnd=%v mode=%v, want 2/slow-start", s.Cwnd(), s.Mode())
	}
	h.take()
	s.OnAck(cum(2)) // 2+1 > 2: transition to CA, then linear growth
	if s.Mode() != CongestionAvoidance {
		t.Errorf("mode = %v, want congestion-avoidance", s.Mode())
	}
	if want := 2 + 1.0/2; s.Cwnd() != want {
		t.Errorf("cwnd = %v, want %v", s.Cwnd(), want)
	}
}

func TestPRDropTimerRearmsWhenMxrttGrows(t *testing.T) {
	h := newHarness()
	s := New(h.env(), Config{Beta: 3, MaxBurst: -1})
	s.Start()
	h.take()
	h.sched.RunUntil(50 * time.Millisecond)
	s.OnAck(cum(1)) // mxrtt = 150ms; seqs 1,2 sent at t=50ms
	h.take()
	// Before their 200ms deadline, a slow ACK pushes ewrtt (and mxrtt) up:
	// deliver an ACK at t=190ms for seq 1 (rtt 140ms -> mxrtt 420ms).
	h.sched.RunUntil(190 * time.Millisecond)
	s.OnAck(cum(2))
	if s.Mxrtt() != 420*time.Millisecond {
		t.Fatalf("mxrtt = %v, want 420ms", s.Mxrtt())
	}
	// Seq 2's original deadline (200ms) passes; it must NOT be declared
	// dropped because the threshold is now 50ms+420ms = 470ms.
	h.sched.RunUntil(460 * time.Millisecond)
	if s.DropsDetected != 0 {
		t.Error("packet dropped at its stale deadline despite grown mxrtt")
	}
	h.sched.RunUntil(471 * time.Millisecond)
	if s.DropsDetected != 1 {
		t.Error("packet not dropped at its re-armed deadline")
	}
}

func TestPRConfigValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"alpha too big": {Alpha: 1.5},
		"beta below 1":  {Beta: 0.5},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s must panic", name)
				}
			}()
			New(tcp.SenderEnv{Sched: sim.NewScheduler(), Transmit: func(tcp.Seg) bool { return true }}, cfg)
		}()
	}
}

// Property: under loss-free in-order delivery with any ACK batching
// pattern, TCP-PR never detects a drop, never halves, and cwnd is
// monotonically non-decreasing.
func TestPRLossFreeMonotoneProperty(t *testing.T) {
	f := func(batches []uint8) bool {
		h := newHarness()
		s := New(h.env(), Config{MaxBurst: -1})
		s.Start()
		acked := int64(0)
		for _, b := range batches {
			outstanding := int64(s.InFlight())
			if outstanding == 0 {
				break
			}
			k := int64(b%8) + 1
			if k > outstanding {
				k = outstanding
			}
			prev := s.Cwnd()
			h.sched.RunUntil(h.sched.Now() + 10*time.Millisecond)
			acked += k
			s.OnAck(cum(acked))
			if s.Cwnd() < prev {
				return false
			}
			h.take()
		}
		return s.DropsDetected == 0 && s.Halvings == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the to-be-ack list never exceeds cwnd by more than one packet
// (flush sends only while cwnd > |to-be-ack|).
func TestPRWindowDisciplineProperty(t *testing.T) {
	f := func(acks []uint8) bool {
		h := newHarness()
		s := New(h.env(), Config{MaxBurst: -1})
		s.Start()
		acked := int64(0)
		for _, a := range acks {
			if float64(s.InFlight()) > s.Cwnd()+1 {
				return false
			}
			outstanding := int64(s.InFlight())
			if outstanding == 0 {
				return true
			}
			k := int64(a%4) + 1
			if k > outstanding {
				k = outstanding
			}
			acked += k
			h.sched.RunUntil(h.sched.Now() + time.Millisecond)
			s.OnAck(cum(acked))
		}
		return float64(s.InFlight()) <= s.Cwnd()+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: every to-be-ack key lies in [una, nextNew), whatever mix of
// cumulative jumps, duplicates, ACKs past the send point, silence (loss
// timers, back-off, extreme-loss resets) and retransmissions the sender
// sees. OnAck relies on it to find the packets an ACK covers by walking
// [old una, cum) instead of the whole window: a key left below una would
// never be released.
func TestPRToBeAckKeysStayInWindowProperty(t *testing.T) {
	var drops, retx uint64
	f := func(seed int64, script []uint8) bool {
		rng := sim.NewRand(seed)
		h := newHarness()
		s := New(h.env(), Config{MaxBurst: -1, InitialCwnd: 8})
		s.Start()
		for _, b := range script {
			switch b % 4 {
			case 0: // silence long enough for loss timers to fire
				h.sched.RunUntil(h.sched.Now() + time.Duration(b)*20*time.Millisecond)
			case 1: // duplicate
				s.OnAck(cum(s.Una()))
			case 2: // cumulative advance, sometimes past everything sent
				s.OnAck(cum(s.Una() + 1 + rng.Int63n(int64(b)/4+2)))
			case 3: // a little time, then the next packet's ACK
				h.sched.RunUntil(h.sched.Now() + time.Duration(b)*time.Millisecond)
				s.OnAck(cum(s.Una() + 1))
			}
			for seq := range s.inflight {
				if seq < s.una || seq >= s.nextNew {
					t.Logf("to-be-ack key %d outside [una %d, nextNew %d)", seq, s.una, s.nextNew)
					return false
				}
			}
			if min, ok := s.retxQueue.Min(); ok && min < s.una {
				t.Logf("to-be-sent retransmission %d below una %d", min, s.una)
				return false
			}
		}
		drops += s.DropsDetected
		for _, seg := range h.sent {
			if seg.Retx {
				retx++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if drops == 0 || retx == 0 {
		t.Fatalf("scripts exercised %d drops and %d retransmissions; the property was checked vacuously", drops, retx)
	}
}

// TestPRLossTimerStorageGoesBackToScheduler: the ring behind a sender's
// loss-timer lane is the scheduler's, on loan while the sender has packets
// in flight. A finished transfer and an aborted one both hand it back, so a
// workload that opens thousands of short transfers cycles a few rings
// instead of allocating one per sender.
func TestPRLossTimerStorageGoesBackToScheduler(t *testing.T) {
	h := newHarness()
	done := New(h.env(), Config{MaxBurst: -1, MaxData: 6})
	done.Start()
	for una := int64(1); !done.Done(); una++ {
		if h.sched.RingPoolLen() != 0 {
			t.Fatalf("ring handed back with %d packets in flight", done.InFlight())
		}
		done.OnAck(cum(una))
	}
	if h.sched.RingPoolLen() != 1 || h.sched.Len() != 0 {
		t.Fatalf("finished transfer: %d rings in the pool, %d events pending, want 1 and 0",
			h.sched.RingPoolLen(), h.sched.Len())
	}

	aborted := New(h.env(), Config{MaxBurst: -1})
	aborted.Start()
	aborted.OnAck(cum(1))
	if h.sched.RingPoolLen() != 0 || aborted.InFlight() != 2 {
		t.Fatalf("second sender: %d rings in the pool, %d in flight; want the pooled ring taken", h.sched.RingPoolLen(), aborted.InFlight())
	}
	aborted.Stop()
	if h.sched.RingPoolLen() != 1 || h.sched.Len() != 0 || !aborted.Quiescent() {
		t.Fatalf("stopped sender: %d rings in the pool, %d events pending", h.sched.RingPoolLen(), h.sched.Len())
	}
}
