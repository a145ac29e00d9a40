// Package core implements TCP-PR, the paper's contribution: a TCP sender
// that detects packet loss purely with timers instead of duplicate
// acknowledgments, making it immune to persistent packet reordering of
// both data and ACKs (Bohacek et al., "TCP-PR: TCP for Persistent Packet
// Reordering", ICDCS 2003, §3).
//
// The sender keeps two lists (Table 1 of the paper): to-be-sent (packets
// waiting for a window opening — here a retransmission queue plus an
// infinite supply of new data) and to-be-ack (packets in flight, each
// stamped with its send time and the congestion window at send time). A
// packet is declared lost when it has been in flight longer than
// mxrtt = β·ewrtt, where ewrtt is a maximum-tracking exponentially
// weighted RTT estimate updated on every ACK as
//
//	ewrtt = max(α^(1/cwnd)·ewrtt, sample-rtt)
//
// α^(1/cwnd) is computed with a fixed number of Newton iterations exactly
// as the paper's Linux-kernel note prescribes. On a new loss the window is
// halved from the cwnd recorded when the lost packet was *sent* (not the
// current one), and a snapshot of the in-flight list (the "memorize" list)
// prevents a burst of drops from halving the window repeatedly. Extreme
// loss (more than cwnd/2+1 drops in a burst, §3.2) resets the window to
// one, raises mxrtt to at least one second, pauses sending for mxrtt, and
// doubles mxrtt on further drops — emulating standard TCP's coarse
// timeout and exponential back-off.
package core

import (
	"math"
	"time"

	"tcppr/internal/sim"
	"tcppr/internal/tcp"
)

// Mode is the congestion-window growth regime.
type Mode int

// Growth modes (Table 1 of the paper).
const (
	SlowStart Mode = iota + 1
	CongestionAvoidance
)

func (m Mode) String() string {
	switch m {
	case SlowStart:
		return "slow-start"
	case CongestionAvoidance:
		return "congestion-avoidance"
	default:
		return "invalid"
	}
}

// HoleMode selects the sender's transmission policy while the cumulative
// ACK is frozen behind a hole. Duplicate ACKs never act as a loss signal
// in any mode — the modes differ only in flight accounting.
type HoleMode int

// Hole policies.
const (
	// HoleThrottled (default): each duplicate ACK discounts one packet
	// from the flight estimate (it proves a delivery — Linux
	// packets_in_flight semantics), and once a hole has stayed open for
	// longer than ewrtt/2 the send allowance is capped at half the
	// congestion window until it resolves. Young holes — the reordering
	// case, which resolves within the path-delay spread — are clocked at
	// the full window, preserving multipath throughput; old holes are
	// almost certainly losses, and capping at cwnd/2 puts the sender at
	// exactly fast recovery's rate before the drop timer even rules, so
	// the delayed detection neither stalls the flow nor overshoots the
	// queue.
	HoleThrottled HoleMode = iota
	// HoleFreeze ignores duplicates entirely: with |to-be-ack| frozen,
	// transmission stops once the window is exhausted and resumes at
	// drop detection — a stall of (β−1)·RTT per loss event that taxes
	// fairness under contention.
	HoleFreeze
	// HoleFullClock discounts duplicates without the throttle: the
	// sender streams at the full pre-loss rate until detection,
	// overshooting the reduction by several RTTs under genuine loss.
	HoleFullClock
)

func (h HoleMode) String() string {
	switch h {
	case HoleThrottled:
		return "throttled"
	case HoleFreeze:
		return "freeze"
	case HoleFullClock:
		return "full-clock"
	default:
		return "invalid"
	}
}

// Config parameterizes a TCP-PR sender. The zero value selects the
// paper's settings: α = 0.995, β = 3, initial congestion window 1.
type Config struct {
	// Alpha is the ewrtt memory factor per RTT, in (0, 1); default 0.995.
	Alpha float64
	// Beta scales ewrtt into the loss-detection threshold mxrtt; the
	// paper requires β > 1 and uses 3.0 as the default.
	Beta float64
	// MaxCwnd caps the congestion window in packets (receiver window);
	// default 10000.
	MaxCwnd float64
	// InitialCwnd is the initial congestion window; default 1.
	InitialCwnd float64
	// MaxData bounds the transfer at this many segments (0 = infinite
	// backlog). Once everything below MaxData is acknowledged the sender
	// goes quiescent.
	MaxData int64
	// InitialSsthresh is the initial slow-start threshold in packets.
	// The default is 20, matching the ns-2 TCP agents the paper's
	// simulations used; pass a negative value for an unbounded initial
	// slow start.
	InitialSsthresh float64
	// DisableMemorize turns off the memorize list (ablation only): every
	// detected drop halves the window, so a burst of drops from one
	// congestion event compounds into repeated reductions.
	DisableMemorize bool
	// HalveFromCurrentCwnd halves from the congestion window at
	// *detection* time instead of the window recorded when the lost
	// packet was sent (ablation only): the reduction then depends on how
	// much the window moved during the detection delay.
	HalveFromCurrentCwnd bool
	// Hole selects how the sender behaves while the cumulative ACK is
	// frozen behind a hole (reordering or loss — indistinguishable until
	// the drop timer rules). Default HoleThrottled.
	Hole HoleMode
	// MaxBurst limits back-to-back transmissions per send opportunity;
	// when the window reopens by more than this (typically after a
	// cumulative jump ends a loss-detection stall), the excess is paced
	// at one packet per ewrtt/cwnd instead of blasted into the queue.
	// This mirrors the ns-2 maxburst_ knob the paper-era simulation
	// culture applied to every TCP agent, but only TCP-PR applies it
	// here: no other sender paces. Default 1 (fully paced window
	// reopenings); negative disables. No ablation of it exists yet; it
	// is tracked as ROADMAP item 10a.
	MaxBurst int
}

// Fixed parameters. The paper's implementation approximates α^(1/cwnd)
// with two Newton iterations; before the first RTT sample mxrtt is the
// conventional 3 s initial RTO; extreme loss doubles mxrtt up to 64 s.
const (
	newtonIters  = 2
	initialMxrtt = 3 * time.Second
	maxBackoff   = 64 * time.Second
)

func (c *Config) fill() {
	if c.Alpha == 0 {
		c.Alpha = 0.995
	}
	if c.Beta == 0 {
		c.Beta = 3.0
	}
	if c.MaxCwnd == 0 {
		c.MaxCwnd = 10000
	}
	if c.InitialCwnd == 0 {
		c.InitialCwnd = 1
	}
	if c.InitialSsthresh == 0 {
		c.InitialSsthresh = 20
	} else if c.InitialSsthresh < 0 {
		c.InitialSsthresh = math.Inf(1)
	}
	if c.MaxBurst == 0 {
		c.MaxBurst = 1
	}
	if c.Alpha <= 0 || c.Alpha >= 1 {
		panic("core: Alpha must be in (0,1)")
	}
	if c.Beta < 1 {
		panic("core: Beta must be >= 1")
	}
}

// flight is one entry of the to-be-ack list. seq is carried on the struct
// so the loss timer's callback argument is the flight itself —
// checkDropEvent reads it back and performs the same lookup-by-sequence
// the paper's event loop does, without a per-send closure.
type flight struct {
	seq        int64
	sentAt     sim.Time
	cwndAtSend float64
	retx       bool
	memorized  bool
	timer      sim.LaneHandle
}

// Sender is a TCP-PR sender with an infinite backlog (FTP-style).
type Sender struct {
	env tcp.SenderEnv
	cfg Config

	mode  Mode
	cwnd  float64
	ssthr float64

	ewrtt time.Duration // 0 until the first sample
	mxrtt time.Duration

	inflight   map[int64]*flight // to-be-ack
	flightFree []*flight         // recycled to-be-ack entries (hot-path pool)
	retxQueue  tcp.IntervalSet   // to-be-sent: sequences awaiting retransmission
	nextNew    int64             // to-be-sent: head of the infinite new-data supply
	una        int64             // highest cumulative ack seen

	memorizeCount int      // size of the memorize list (flagged in-flight packets)
	cburst        int      // drops charged to the current burst (§3.2)
	dupTicks      int      // duplicate ACKs since the last cumulative advance (flight accounting)
	holeStart     sim.Time // when the current hole opened (first duplicate)

	probe tcp.SenderProbe // nil unless a tracer attached (SetProbe)

	pausedUntil sim.Time // extreme-loss send pause
	resumeTimer *sim.Timer
	lastRetx    sim.Time // time of the last retransmission (see checkDrop)
	// The flags share one word: a Sender is allocated per connection and
	// sits exactly in the 448-byte malloc class.
	inExtremeRec bool // recovering from an extreme-loss reset (until memorize drains)
	stopped      bool // set by Stop (connection abort); flush refuses to send
	hasRetx      bool // lastRetx is set

	// lossTimers carries the per-packet loss timers. The to-be-ack list is
	// ordered by send time and mxrtt is sender-global, so deadlines almost
	// never decrease: the whole window costs one scheduler entry, and an
	// ACKed packet's timer is dropped in the lane instead of being popped
	// dead at its deadline. The rare earlier deadline (mxrtt shrank, a
	// re-arm in checkDrop) becomes an ordinary event inside Lane.At.
	lossTimers sim.Lane

	txSeq int64

	// Counters for tests, traces, and experiments.
	Halvings      uint64 // window halvings (new congestion events)
	BurstDrops    uint64 // drops absorbed by the memorize list
	ExtremeEvents uint64 // §3.2 resets
	DropsDetected uint64 // total timer-detected drops
	// AlphaTimeouts counts drops declared by the α/β deadline itself (the
	// mxrtt = β·ewrtt timer expired); RevealedDrops counts drops declared
	// early by OnAck's head-of-line check when a cumulative jump exposed
	// the hole. The two partition DropsDetected.
	AlphaTimeouts uint64
	RevealedDrops uint64
	// SpuriousRetxAvoided counts holes that closed on their own after at
	// least three duplicate ACKs: a dupack-threshold sender would have
	// fast-retransmitted (and halved for) these reordered-not-lost
	// packets, while TCP-PR's timers let them arrive — the paper's core
	// claim, made observable.
	SpuriousRetxAvoided uint64
}

// New creates a TCP-PR sender bound to a flow environment.
func New(env tcp.SenderEnv, cfg Config) *Sender {
	cfg.fill()
	s := &Sender{
		env:      env,
		cfg:      cfg,
		mode:     SlowStart,
		cwnd:     cfg.InitialCwnd,
		ssthr:    cfg.InitialSsthresh,
		mxrtt:    initialMxrtt,
		inflight: make(map[int64]*flight),
	}
	s.resumeTimer = sim.NewTimer(env.Sched, s.flush)
	s.lossTimers.Init(env.Sched, s.checkDropEvent)
	return s
}

// checkDropEvent adapts checkDrop to the scheduler's closure-free callback
// shape; bound once as the loss-timer lane's callback, so arming a loss
// timer allocates nothing beyond the flight entry itself.
func (s *Sender) checkDropEvent(arg any) { s.checkDrop(arg.(*flight).seq) }

// newFlight pops a recycled to-be-ack entry, or allocates one when the
// free list is dry. Entries reach the free list only through putFlight,
// which cancels their loss timer, so a popped entry carries no live state.
func (s *Sender) newFlight() *flight {
	if n := len(s.flightFree); n > 0 {
		f := s.flightFree[n-1]
		s.flightFree = s.flightFree[:n-1]
		*f = flight{}
		return f
	}
	return &flight{}
}

// putFlight recycles a to-be-ack entry once it left the inflight map. The
// loss timer must be cancelled here: each flight owns at most one pending
// timer event, and that event's argument is the flight itself — letting it
// fire after recycling would evaluate whatever sequence the entry carries
// by then.
func (s *Sender) putFlight(f *flight) {
	s.lossTimers.Cancel(f.timer)
	s.flightFree = append(s.flightFree, f)
}

var _ tcp.Sender = (*Sender)(nil)
var _ tcp.ProbeSetter = (*Sender)(nil)

// SetProbe implements tcp.ProbeSetter.
func (s *Sender) SetProbe(p tcp.SenderProbe) { s.probe = p }

// probeCwnd reports the current window pair to an attached probe.
func (s *Sender) probeCwnd() {
	if s.probe != nil {
		s.probe.ProbeCwnd(s.env.Now(), s.cwnd, s.ssthr)
	}
}

// Cwnd returns the congestion window in packets.
func (s *Sender) Cwnd() float64 { return s.cwnd }

// Ssthr returns the slow-start threshold.
func (s *Sender) Ssthr() float64 { return s.ssthr }

// Mode returns the growth mode.
func (s *Sender) Mode() Mode { return s.mode }

// Ewrtt returns the maximum-tracking RTT estimate (zero before the first
// sample).
func (s *Sender) Ewrtt() time.Duration { return s.ewrtt }

// Mxrtt returns the current loss-detection threshold β·ewrtt.
func (s *Sender) Mxrtt() time.Duration { return s.mxrtt }

// Una returns the highest cumulative acknowledgment received.
func (s *Sender) Una() int64 { return s.una }

// InFlight returns the size of the to-be-ack list.
func (s *Sender) InFlight() int { return len(s.inflight) }

// MemorizeLen returns the size of the memorize list.
func (s *Sender) MemorizeLen() int { return s.memorizeCount }

// FlightEstimate exposes the sender's own in-flight estimate (to-be-ack
// minus the memorized and dup-ack discounts) — the quantity the send gate
// compares against cwnd. Conformance checkers use it to validate the
// outstanding ≤ cwnd rule without re-deriving the discounts.
func (s *Sender) FlightEstimate() int { return s.flightEstimate() }

// Start implements tcp.Sender.
func (s *Sender) Start() { s.flush() }

// OnAck implements tcp.Sender. TCP-PR reads only the cumulative field:
// duplicate ACKs and SACK blocks carry no loss signal for it (§3). Every
// arrival does, however, serve as a clock tick for re-evaluating the
// head-of-line packet's deadline (see headOfLineCheck).
func (s *Sender) OnAck(ack tcp.Ack) {
	cum := ack.CumAck
	if cum <= s.una {
		// A duplicate carries no loss signal and never shrinks the
		// window, but it does testify that one packet left the network.
		if s.cfg.Hole != HoleFreeze && cum == s.una && len(s.inflight) > 0 {
			if s.dupTicks == 0 {
				s.holeStart = s.env.Now()
			}
			s.dupTicks++
		}
		s.headOfLineCheck()
		s.flush()
		return
	}
	// The hole closed by itself: the "missing" packet was reordered, not
	// lost. Past the classic three-dupack threshold this is exactly the
	// spurious fast retransmit TCP-PR's timer-only detection avoided.
	if s.dupTicks >= 3 {
		if f, ok := s.inflight[s.una]; ok && !f.retx {
			s.SpuriousRetxAvoided++
		}
	}
	oldUna := s.una
	s.una = cum
	s.dupTicks = 0
	s.env.ReportProgress()

	// Anything the receiver now holds no longer needs retransmission.
	s.retxQueue.DropBelow(cum)
	// Every to-be-ack key lies in [una, nextNew): send takes either
	// nextNew, which never falls below una, or the smallest queued
	// retransmission, which was a to-be-ack key when onDrop queued it and
	// has survived every DropBelow(cum) since. So the packets this ACK
	// covers are found by walking the sequences it newly covers — O(acked)
	// — rather than the whole window.
	end := cum
	if s.nextNew < cum {
		end = s.nextNew
		s.nextNew = cum
	}

	now := s.env.Now()
	var sample time.Duration
	sampled := false
	coversRetx := false
	ackedCount := 0
	for seq := oldUna; seq < end; seq++ {
		f, ok := s.inflight[seq]
		if !ok {
			continue // declared dropped, waiting in to-be-sent
		}
		ackedCount++
		delete(s.inflight, seq)
		if f.memorized {
			s.memorizeCount--
		}
		if f.retx {
			coversRetx = true
		} else if rtt := now - f.sentAt; rtt > sample {
			sample = rtt
			sampled = true
		}
		s.putFlight(f)
	}
	if ackedCount == 0 {
		return // ACK for data declared dropped and already re-queued
	}
	if s.memorizeCount == 0 {
		s.exitExtremeRec()
	}

	// Karn's rule at ACK granularity: a cumulative jump that covers a
	// retransmitted hole also releases packets that sat blocked behind
	// it — their apparent RTTs include the whole stall and would blow up
	// the maximum-tracking estimate, so the whole ACK yields no sample.
	if sampled && !coversRetx {
		s.updateEwrtt(sample)
	}

	// Window growth, once per newly acknowledged packet ("ACK received
	// for packet n" in Table 1 is per packet; a cumulative jump after a
	// hole fills acknowledges several at once).
	for i := 0; i < ackedCount; i++ {
		if s.mode == SlowStart {
			if s.cwnd+1 <= s.ssthr {
				s.cwnd++
			} else {
				s.mode = CongestionAvoidance
			}
		}
		if s.mode == CongestionAvoidance {
			s.cwnd += 1 / s.cwnd
		}
	}
	if s.cwnd > s.cfg.MaxCwnd {
		s.cwnd = s.cfg.MaxCwnd
	}
	s.probeCwnd()

	s.headOfLineCheck()
	s.flush()
	if s.Done() {
		s.lossTimers.Release() // nothing in flight, nothing left to send
	}
}

// headOfLineCheck evaluates Table 1's drop condition, time > time(n) +
// mxrtt, for the first unacknowledged packet on every ACK arrival. Two
// situations depend on it:
//
//   - A cumulative jump reveals the next hole of a multi-loss window; the
//     early declaration keeps recovery at one hole per round trip
//     (NewReno-like) instead of one hole per mxrtt.
//   - The head hole's re-armed timer can be starved: its deadline is
//     anchored at lastRetx, and retransmissions of *other* timed-out
//     packets keep pushing that anchor forward each cycle. The ACK-clocked
//     check evaluates the paper's raw per-send deadline, immune to the
//     anchor.
//
// Reordered-but-alive packets are unaffected: their deadline has not
// expired (mxrtt bounds the reordering spread by construction).
func (s *Sender) headOfLineCheck() {
	if f, ok := s.inflight[s.una]; ok && s.env.Now() > f.sentAt+s.mxrtt {
		s.onDrop(s.una, f, true)
	}
}

// updateEwrtt applies formula (1): ewrtt = max(α^(1/cwnd)·ewrtt, sample),
// then refreshes mxrtt = β·ewrtt. Non-positive samples are discarded: a
// zero RTT is unphysical and would collapse the loss-detection threshold.
func (s *Sender) updateEwrtt(sample time.Duration) {
	if sample <= 0 {
		return
	}
	if s.ewrtt == 0 {
		s.ewrtt = sample
	} else {
		decay := NewtonRoot(s.cfg.Alpha, s.cwnd, newtonIters)
		decayed := time.Duration(float64(s.ewrtt) * decay)
		if sample > decayed {
			s.ewrtt = sample
		} else {
			s.ewrtt = decayed
		}
	}
	s.mxrtt = time.Duration(s.cfg.Beta * float64(s.ewrtt))
	if s.probe != nil {
		s.probe.ProbeRTT(s.env.Now(), s.ewrtt, s.mxrtt)
	}
}

// NewtonRoot approximates alpha^(1/cwnd) with n iterations of Newton's
// method on x^cwnd = α, exactly as the paper's kernel-implementation note
// describes (starting from x = 1):
//
//	x := ((cwnd-1)/cwnd)·x + α/(cwnd·x^(cwnd-1))
func NewtonRoot(alpha, cwnd float64, n int) float64 {
	if cwnd < 1 {
		cwnd = 1
	}
	x := 1.0
	for i := 0; i < n; i++ {
		x = (cwnd-1)/cwnd*x + alpha/(cwnd*math.Pow(x, cwnd-1))
	}
	return x
}

// checkDrop fires when packet seq's loss-detection timer expires. Because
// mxrtt may have grown since the timer was armed, the deadline is
// re-evaluated against the *current* mxrtt and the timer re-armed if the
// packet still has time left.
//
// The deadline is anchored at max(send time, last retransmission time):
// under cumulative ACKs every packet behind a hole has its ACK blocked
// until the hole's retransmission lands, so "no ACK for mxrtt" carries no
// information about packets in flight while a retransmission is pending —
// that retransmission will resolve their fate within one RTT, and one RTT
// < mxrtt by construction (β > 1). Without this grace the whole window
// behind any single loss would be declared dropped, cascading into a
// spurious §3.2 extreme-loss reset and a flood of unnecessary
// retransmissions. Holes the grace would otherwise delay are detected
// early by OnAck's fast path the moment a cumulative jump exposes them.
func (s *Sender) checkDrop(seq int64) {
	f, ok := s.inflight[seq]
	if !ok {
		return
	}
	now := s.env.Now()
	anchor := f.sentAt
	if s.hasRetx && s.lastRetx > anchor {
		anchor = s.lastRetx
	}
	// During an extreme-loss pause no retransmission can be sent, so
	// declaring further drops is pure waste; give outstanding packets
	// until one threshold past the pause end.
	if s.pausedUntil > anchor {
		anchor = s.pausedUntil
	}
	deadline := anchor + s.mxrtt
	if now < deadline {
		f.timer = s.lossTimers.At(deadline, f)
		return
	}
	s.onDrop(seq, f, false)
}

// onDrop implements the drop-detected event of Table 1 plus the
// extreme-loss extension of §3.2. revealed marks drops detected by the
// OnAck fast path rather than by a timer.
func (s *Sender) onDrop(seq int64, f *flight, revealed bool) {
	s.DropsDetected++
	if revealed {
		s.RevealedDrops++
	} else {
		s.AlphaTimeouts++
	}
	if s.probe != nil {
		kind := "pr-timer"
		if revealed {
			kind = "pr-revealed"
		}
		s.probe.ProbeLossTimer(s.env.Now(), seq, kind)
	}
	delete(s.inflight, seq)

	if f.memorized {
		// The burst this packet belonged to was already reacted to:
		// no further halving, but the drop counts toward extreme-loss
		// detection. The extreme reset fires at most once per burst —
		// while its own slow-start recovery drains the memorize list,
		// further drops from the same burst must not re-reset, or a
		// large burst would be recovered one segment per pause.
		s.memorizeCount--
		s.cburst++
		s.BurstDrops++
		if !s.inExtremeRec && float64(s.cburst) > s.cwnd/2+1 {
			s.extremeLoss()
		}
		if s.memorizeCount == 0 {
			s.exitExtremeRec()
		}
	} else if s.cwnd <= 1 {
		// Further drops while the window is already at one segment
		// double mxrtt instead of halving (the paper's emulation of
		// RTO exponential back-off, §3.2). Each doubling is one
		// RTO-equivalent for the RFC 1122 R1/R2 lifecycle.
		if !s.env.ReportTimeout() {
			s.putFlight(f)
			return // connection aborted; Stop has already run
		}
		s.mxrtt *= 2
		if s.mxrtt > maxBackoff {
			s.mxrtt = maxBackoff
		}
		if s.probe != nil {
			s.probe.ProbeRTT(s.env.Now(), s.ewrtt, s.mxrtt)
		}
		s.pause(s.mxrtt)
	} else {
		// New congestion event: memorize the outstanding packets and
		// halve from the cwnd in effect when the lost packet was sent.
		s.Halvings++
		if !s.cfg.DisableMemorize {
			s.memorizeCount = 0
			for _, g := range s.inflight {
				g.memorized = true
				s.memorizeCount++
			}
		}
		base := f.cwndAtSend
		if s.cfg.HalveFromCurrentCwnd {
			base = s.cwnd
		}
		s.cwnd = math.Max(base/2, 1)
		s.ssthr = s.cwnd
		s.mode = CongestionAvoidance
	}
	s.putFlight(f)

	s.probeCwnd()

	// Move the packet back to to-be-sent for retransmission.
	s.retxQueue.Add(seq, seq+1)
	s.flush()
}

// exitExtremeRec clears the burst accounting and reports the end of an
// extreme-loss recovery episode, if one was in progress.
func (s *Sender) exitExtremeRec() {
	s.cburst = 0
	if s.inExtremeRec {
		s.inExtremeRec = false
		if s.probe != nil {
			s.probe.ProbeRecovery(s.env.Now(), false, "extreme-loss")
		}
	}
}

// extremeLoss implements §3.2: reset to one segment, slow-start, raise
// mxrtt to at least one second (the coarse-timer floor of RFC 2988), and
// pause sending for mxrtt.
//
// Like the RTO it emulates, the reset treats every outstanding packet as
// no longer in flight: they are all moved onto the memorize list so they
// neither occupy the (now single-segment) window nor cause further
// reductions when their own timers expire. A burst triggers the reset at
// most once; drops from the same burst arriving after the reset only
// extend the send pause.
func (s *Sender) extremeLoss() {
	if s.cwnd <= 1 && s.mode == SlowStart {
		// Same burst, same episode: extending the pause is not a new
		// RTO-equivalent, so it doesn't advance the R1/R2 count.
		s.pause(s.mxrtt)
		return
	}
	// The §3.2 reset is TCP-PR's coarse timeout; report it as one
	// RTO-equivalent to the connection lifecycle before reacting.
	if !s.env.ReportTimeout() {
		return // connection aborted; Stop has already run
	}
	s.ExtremeEvents++
	if s.probe != nil {
		s.probe.ProbeRecovery(s.env.Now(), true, "extreme-loss")
	}
	s.ssthr = math.Max(s.cwnd/2, 2)
	s.cwnd = 1
	s.mode = SlowStart
	s.cburst = 0 // the reaction happened; the next burst starts fresh
	s.inExtremeRec = true
	for _, g := range s.inflight {
		if !g.memorized {
			g.memorized = true
			s.memorizeCount++
		}
	}
	if s.mxrtt < time.Second {
		s.mxrtt = time.Second
	}
	s.pause(s.mxrtt)
}

// pause suspends transmission for d from now.
func (s *Sender) pause(d time.Duration) {
	until := s.env.Now() + d
	if until > s.pausedUntil {
		s.pausedUntil = until
	}
}

// flush implements flush-cwnd of Table 1: send the smallest pending
// sequence while the window has room (cwnd > |to-be-ack|).
//
// Packets on the memorize list do not count toward the in-flight total:
// they were sent before the congestion reaction, so charging them against
// the already-halved window would block the retransmission of the lost
// packet until the entire old window drained — a deadlock under
// cumulative ACKs, where that drain can only happen through further
// (spurious) drop declarations. This mirrors fast recovery's treatment of
// the pre-reduction flight in standard TCP.
func (s *Sender) flush() {
	if s.stopped {
		return
	}
	now := s.env.Now()
	if now < s.pausedUntil {
		if !s.resumeTimer.Pending() {
			s.resumeTimer.Reset(s.pausedUntil)
		}
		return
	}
	allowance := s.cwnd
	if s.cfg.Hole == HoleThrottled && s.dupTicks > 0 &&
		now-s.holeStart > s.ewrtt/2 {
		// The hole outlived the reordering spread: treat it as a
		// probable loss and cap the send rate at fast recovery's level
		// until the cumulative ACK rules (jump) or the drop timer does.
		allowance = s.cwnd / 2
	}
	sent := 0
	for float64(s.flightEstimate()) < allowance {
		if _, ok := s.peekNext(); !ok {
			return // finite transfer: nothing left to send
		}
		if s.cfg.MaxBurst > 0 && sent >= s.cfg.MaxBurst {
			// Pace the remainder at roughly the flow's own rate.
			interval := time.Duration(float64(s.ewrtt) / math.Max(s.cwnd, 1))
			if interval <= 0 {
				interval = time.Millisecond
			}
			if !s.resumeTimer.Pending() {
				s.resumeTimer.ResetAfter(interval)
			}
			return
		}
		seq, retx := s.nextToSend()
		s.send(seq, retx)
		sent++
	}
}

// flightEstimate counts the packets believed to still occupy the network:
// the to-be-ack list minus the memorize list (sent before the last
// congestion reaction) minus one per duplicate ACK since the cumulative
// point froze (each duplicate proves a delivery). At least the head
// packet is always counted while anything is outstanding.
func (s *Sender) flightEstimate() int {
	est := len(s.inflight) - s.memorizeCount
	// The duplicate-ACK discount (see Config.Hole)
	// never counts the head packet itself out of the network.
	disc := s.dupTicks
	if disc > est-1 {
		disc = est - 1
	}
	if disc > 0 {
		est -= disc
	}
	return est
}

// peekNext reports whether the to-be-sent list has anything left: a
// pending retransmission, or new data below the (optional) transfer
// limit.
func (s *Sender) peekNext() (seq int64, ok bool) {
	if min, has := s.retxQueue.Min(); has && min < s.nextNew {
		return min, true
	}
	if s.cfg.MaxData > 0 && s.nextNew >= s.cfg.MaxData {
		return 0, false
	}
	return s.nextNew, true
}

// Done reports whether a finite transfer has been fully acknowledged.
func (s *Sender) Done() bool {
	return s.cfg.MaxData > 0 && s.una >= s.cfg.MaxData
}

// Stop cancels everything the sender has pending — the resume timer and
// every per-packet loss timer on the to-be-ack list, whose entries go back
// to the pool — implementing tcp.Stopper for connection aborts. The flow
// guards subsequent OnAck deliveries, so a stopped sender never re-arms.
func (s *Sender) Stop() {
	s.stopped = true
	s.resumeTimer.Stop()
	for seq, f := range s.inflight {
		delete(s.inflight, seq)
		s.putFlight(f) // cancels the flight's loss timer
	}
	s.memorizeCount = 0
	s.dupTicks = 0
	s.lossTimers.Release()
}

// Quiescent reports whether the sender holds no pending timers (no
// in-flight loss timers, no resume timer); the invariant checker asserts
// it right after an abort.
func (s *Sender) Quiescent() bool {
	return len(s.inflight) == 0 && !s.resumeTimer.Pending()
}

// nextToSend pops the smallest sequence from the to-be-sent list:
// retransmissions first (they always have smaller sequence numbers than
// new data), then the supply of new packets.
func (s *Sender) nextToSend() (seq int64, retx bool) {
	if min, ok := s.retxQueue.Min(); ok && min < s.nextNew {
		s.retxQueue.DropBelow(min + 1)
		return min, true
	}
	seq = s.nextNew
	s.nextNew++
	return seq, false
}

func (s *Sender) send(seq int64, retx bool) {
	now := s.env.Now()
	f := s.newFlight()
	f.seq, f.sentAt, f.cwndAtSend, f.retx = seq, now, s.cwnd, retx
	f.timer = s.lossTimers.At(now+s.mxrtt, f)
	s.inflight[seq] = f
	if retx {
		s.lastRetx = now
		s.hasRetx = true
	}
	s.txSeq++
	s.env.Transmit(tcp.Seg{Seq: seq, Retx: retx, TxSeq: s.txSeq, Stamp: now})
}
