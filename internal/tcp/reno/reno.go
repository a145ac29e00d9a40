// Package reno implements TCP Reno and NewReno senders: duplicate-ACK
// based fast retransmit / fast recovery with RFC 6298 retransmission
// timeouts. These are the "standard TCP" loss-detection mechanisms whose
// fragility under persistent reordering motivates the paper.
//
// The recovery *trigger* — the rule deciding when duplicate ACKs indicate
// a loss — is pluggable so that time-delayed fast recovery (TD-FR, package
// tdfr) can reuse the full Reno machinery and change only that rule.
package reno

import (
	"math"
	"time"

	"tcppr/internal/sim"
	"tcppr/internal/tcp"
)

// Trigger decides when a run of duplicate ACKs should enter fast recovery.
type Trigger interface {
	// OnDupAck is invoked for every duplicate ACK received outside
	// recovery. count is the current consecutive-duplicate count and srtt
	// the sender's smoothed RTT estimate. The implementation calls fire —
	// synchronously or from a later timer — to enter fast recovery; stale
	// fires are ignored by the sender.
	OnDupAck(count int, srtt time.Duration, fire func())
	// OnAdvance is invoked when the cumulative ACK advances, cancelling
	// any pending trigger.
	OnAdvance()
}

// CountTrigger is the classic rule: fire on the Nth duplicate ACK.
type CountTrigger struct{ Thresh int }

// OnDupAck implements Trigger.
func (c CountTrigger) OnDupAck(count int, _ time.Duration, fire func()) {
	if count == c.Thresh {
		fire()
	}
}

// OnAdvance implements Trigger.
func (c CountTrigger) OnAdvance() {}

// Config parameterizes a Reno-family sender. The zero value selects
// classic Reno: dupthresh 3, initial cwnd 1, and the tcp package's RFC
// 6298 timer bounds (1 s minimum, 64 s maximum, 3 s initial RTO). The
// threshold, initial window and timer bounds are fixed.
type Config struct {
	// NewReno enables NewReno partial-ACK handling (stay in recovery and
	// retransmit the next hole instead of exiting on the first new ACK).
	NewReno bool
	// Trigger overrides the recovery-entry rule, the third duplicate ACK
	// (used by TD-FR).
	Trigger Trigger
	// LimitedTransmit enables RFC 3042: send up to two new segments on
	// the first two duplicate ACKs.
	LimitedTransmit bool
	// MaxCwnd is the receiver-window cap in packets (default 10000).
	MaxCwnd float64
	// MaxData bounds the transfer at this many segments (0 = infinite
	// backlog). Once everything below MaxData is acknowledged the sender
	// goes quiescent: no new data, timers cancelled.
	MaxData int64
	// InitialSsthresh is the initial slow-start threshold in packets
	// (default 20, the ns-2 TCP agent default the paper's simulations
	// used; negative means unbounded).
	InitialSsthresh float64
	// GateReduction, when non-nil, is consulted before every congestion
	// response (fast retransmit's halving and the timeout's collapse to
	// one segment). Returning false suppresses the window change —
	// retransmissions still happen. TCP-DOOR uses this to disable
	// congestion control for an interval after detecting out-of-order
	// delivery.
	GateReduction func() bool
	// OnReduction, when non-nil, fires after every congestion response
	// with the pre-reduction state. TCP-DOOR and Eifel record it to undo
	// reductions later (see RestoreState).
	OnReduction func(preCwnd, preSsthresh float64)
}

func (c *Config) fill() {
	if c.Trigger == nil {
		c.Trigger = CountTrigger{Thresh: 3}
	}
	if c.MaxCwnd == 0 {
		c.MaxCwnd = 10000
	}
	if c.InitialSsthresh == 0 {
		c.InitialSsthresh = 20
	} else if c.InitialSsthresh < 0 {
		c.InitialSsthresh = math.Inf(1)
	}
}

// Sender is a Reno/NewReno TCP sender with an infinite backlog (FTP-style,
// matching the paper's workloads).
type Sender struct {
	env tcp.SenderEnv
	cfg Config

	cwnd      float64
	ssthresh  float64
	una       int64 // lowest unacknowledged sequence
	nextSeq   int64 // next sequence to transmit
	highWater int64 // highest sequence ever sent + 1 (go-back-N boundary)
	dupacks   int

	inRecovery bool
	recover    int64 // highest sequence sent when recovery was entered
	epoch      int   // increments on recovery entry/exit; invalidates stale trigger fires

	rto      *tcp.RTOEstimator
	times    tcp.SendTimes
	rtxTimer *sim.Timer
	txSeq    int64
	probe    tcp.SenderProbe // nil unless a tracer attached (SetProbe)

	// Counters for tests and traces.
	FastRecoveries uint64
	Timeouts       uint64
}

// New creates a Reno-family sender bound to a flow environment.
func New(env tcp.SenderEnv, cfg Config) *Sender {
	cfg.fill()
	s := &Sender{
		env:      env,
		cfg:      cfg,
		cwnd:     1,
		ssthresh: cfg.InitialSsthresh,
		rto:      tcp.NewRTOEstimator(0, 0, 0),
	}
	s.rtxTimer = sim.NewTimer(env.Sched, s.onTimeout)
	return s
}

var _ tcp.Sender = (*Sender)(nil)
var _ tcp.ProbeSetter = (*Sender)(nil)

// SetProbe implements tcp.ProbeSetter.
func (s *Sender) SetProbe(p tcp.SenderProbe) { s.probe = p }

// probeCwnd reports the current window pair to an attached probe.
func (s *Sender) probeCwnd() {
	if s.probe != nil {
		s.probe.ProbeCwnd(s.env.Now(), s.cwnd, s.ssthresh)
	}
}

// Cwnd returns the current congestion window in packets.
func (s *Sender) Cwnd() float64 { return s.cwnd }

// Ssthresh returns the slow-start threshold in packets.
func (s *Sender) Ssthresh() float64 { return s.ssthresh }

// Una returns the lowest unacknowledged sequence number.
func (s *Sender) Una() int64 { return s.una }

// InRecovery reports whether the sender is in fast recovery.
func (s *Sender) InRecovery() bool { return s.inRecovery }

// SRTT returns the smoothed RTT estimate.
func (s *Sender) SRTT() time.Duration { return s.rto.SRTT() }

// RTO returns the current retransmission timeout (with back-off applied).
func (s *Sender) RTO() time.Duration { return s.rto.RTO() }

// RTOBounds returns the estimator's [min, max] clamp, for conformance
// checking.
func (s *Sender) RTOBounds() (min, max time.Duration) { return s.rto.Min(), s.rto.Max() }

// RestoreState reinstates a previously recorded congestion state (see
// Config.OnReduction): the window slow-starts back up to the restored
// cwnd rather than jumping, following [3]'s burst-avoidance advice. Any
// recovery in progress is abandoned. TCP-DOOR's instant recovery and
// Eifel's spurious-retransmission response both use this.
func (s *Sender) RestoreState(cwnd, ssthresh float64) {
	s.ssthresh = math.Max(cwnd, 2)
	if ssthresh > s.ssthresh {
		s.ssthresh = ssthresh
	}
	s.inRecovery = false
	s.epoch++
	s.dupacks = 0
	s.trySend()
}

// Start implements tcp.Sender.
func (s *Sender) Start() { s.trySend() }

// OnAck implements tcp.Sender.
func (s *Sender) OnAck(ack tcp.Ack) {
	switch {
	case ack.CumAck > s.una:
		s.onNewAck(ack)
	case ack.CumAck == s.una && s.nextSeq > s.una:
		s.onDupAck(ack)
	default:
		// Stale ACK reordered on the reverse path; ignore.
		return
	}
	s.trySend()
}

func (s *Sender) onNewAck(ack tcp.Ack) {
	s.env.ReportProgress()
	if rtt, ok := s.times.Sample(ack.EchoSeq, s.env.Now()); ok {
		s.rto.OnSample(rtt)
		if s.probe != nil {
			s.probe.ProbeRTT(s.env.Now(), s.rto.SRTT(), s.rto.RTO())
		}
	}
	s.times.Forget(ack.CumAck)
	s.cfg.Trigger.OnAdvance()
	if ack.CumAck > s.nextSeq {
		// The receiver already holds data beyond our (rewound) send
		// pointer: skip ahead instead of re-sending it.
		s.nextSeq = ack.CumAck
	}

	if s.inRecovery {
		if ack.CumAck > s.recover {
			// Full recovery: deflate to ssthresh and resume.
			s.exitRecovery()
			s.una = ack.CumAck
		} else if s.cfg.NewReno {
			// Partial ACK: retransmit the next hole, deflate by the
			// amount acked, stay in recovery (RFC 6582).
			acked := float64(ack.CumAck - s.una)
			s.una = ack.CumAck
			s.cwnd = math.Max(s.cwnd-acked+1, 1)
			s.probeCwnd()
			s.retransmit(s.una)
			s.restartTimer()
			return
		} else {
			// Classic Reno: any new ACK ends recovery.
			s.exitRecovery()
			s.una = ack.CumAck
		}
	} else {
		s.dupacks = 0
		s.una = ack.CumAck
		s.grow()
	}
	s.restartTimer()
}

func (s *Sender) exitRecovery() {
	s.inRecovery = false
	s.epoch++
	s.dupacks = 0
	s.cwnd = s.ssthresh
	if s.probe != nil {
		s.probe.ProbeRecovery(s.env.Now(), false, "fast-recovery")
	}
	s.probeCwnd()
}

func (s *Sender) onDupAck(ack tcp.Ack) {
	s.dupacks++
	if s.inRecovery {
		// Window inflation: each duplicate signals one departure.
		s.cwnd = math.Min(s.cwnd+1, s.cfg.MaxCwnd)
		return
	}
	epoch := s.epoch
	s.cfg.Trigger.OnDupAck(s.dupacks, s.rto.SRTT(), func() {
		if s.epoch == epoch && !s.inRecovery && s.dupacks > 0 {
			s.enterRecovery()
		}
	})
}

// enterRecovery performs fast retransmit + fast recovery entry.
func (s *Sender) enterRecovery() {
	s.FastRecoveries++
	s.retransmit(s.una)
	if s.cfg.GateReduction != nil && !s.cfg.GateReduction() {
		s.restartTimer()
		return // congestion control disabled (TCP-DOOR response 1)
	}
	s.inRecovery = true
	s.epoch++
	s.recover = s.nextSeq - 1
	if s.cfg.OnReduction != nil {
		s.cfg.OnReduction(s.cwnd, s.ssthresh)
	}
	if s.probe != nil {
		s.probe.ProbeRecovery(s.env.Now(), true, "fast-recovery")
	}
	s.ssthresh = math.Max(s.cwnd/2, 2)
	s.cwnd = s.ssthresh + float64(s.dupacks)
	s.probeCwnd()
	s.restartTimer()
	s.trySend()
}

// grow opens the congestion window: slow start below ssthresh, congestion
// avoidance above.
func (s *Sender) grow() {
	if s.cwnd < s.ssthresh {
		s.cwnd++
	} else {
		s.cwnd += 1 / s.cwnd
	}
	if s.cwnd > s.cfg.MaxCwnd {
		s.cwnd = s.cfg.MaxCwnd
	}
	s.probeCwnd()
}

// sendAllowance returns the highest sequence (exclusive) the sender may
// currently transmit.
func (s *Sender) sendAllowance() int64 {
	allow := s.una + int64(s.cwnd)
	if s.cfg.LimitedTransmit && !s.inRecovery && s.dupacks > 0 {
		lt := s.dupacks
		if lt > 2 {
			lt = 2
		}
		allow += int64(lt)
	}
	return allow
}

func (s *Sender) trySend() {
	for s.nextSeq < s.sendAllowance() {
		if s.cfg.MaxData > 0 && s.nextSeq >= s.cfg.MaxData {
			return // finite transfer: no data beyond the limit
		}
		// Sequences below highWater are re-sends of the region rewound
		// by a timeout (go-back-N).
		s.send(s.nextSeq, s.nextSeq < s.highWater)
		s.nextSeq++
		if s.nextSeq > s.highWater {
			s.highWater = s.nextSeq
		}
	}
}

// Done reports whether a finite transfer has been fully acknowledged.
func (s *Sender) Done() bool {
	return s.cfg.MaxData > 0 && s.una >= s.cfg.MaxData
}

func (s *Sender) send(seq int64, retx bool) {
	now := s.env.Now()
	s.times.Sent(seq, now, retx)
	s.txSeq++
	s.env.Transmit(tcp.Seg{Seq: seq, Retx: retx, TxSeq: s.txSeq, Stamp: now})
	if !s.rtxTimer.Pending() {
		s.armTimer()
	}
}

func (s *Sender) retransmit(seq int64) { s.send(seq, true) }

func (s *Sender) armTimer() {
	s.rtxTimer.ResetAfter(s.rto.RTO())
}

// Stop cancels every pending timer the sender owns — the retransmission
// timer and, when the dup-ACK trigger keeps one (TD-FR), its reordering
// timer — implementing tcp.Stopper so a connection abort leaves no events
// behind. The flow guards subsequent OnAck deliveries, so a stopped sender
// never re-arms.
func (s *Sender) Stop() {
	s.rtxTimer.Stop()
	if st, ok := s.cfg.Trigger.(interface{ Stop() }); ok {
		st.Stop()
	}
}

// Quiescent reports whether the sender holds no pending timers; the
// invariant checker asserts it right after an abort.
func (s *Sender) Quiescent() bool {
	if s.rtxTimer.Pending() {
		return false
	}
	if q, ok := s.cfg.Trigger.(interface{ Quiescent() bool }); ok {
		return q.Quiescent()
	}
	return true
}

// restartTimer re-arms the retransmission timer if data is outstanding and
// cancels it otherwise (RFC 6298 §5.2–5.3), including when a finite
// transfer completes.
func (s *Sender) restartTimer() {
	s.rtxTimer.Stop()
	if s.nextSeq > s.una && !s.Done() {
		s.armTimer()
	}
}

func (s *Sender) onTimeout() {
	if s.nextSeq == s.una {
		return // nothing outstanding
	}
	if !s.env.ReportTimeout() {
		return // connection aborted; Stop has already run
	}
	s.Timeouts++
	if s.probe != nil {
		s.probe.ProbeLossTimer(s.env.Now(), s.una, "rto")
		if s.inRecovery {
			s.probe.ProbeRecovery(s.env.Now(), false, "fast-recovery")
		}
	}
	if s.cfg.GateReduction == nil || s.cfg.GateReduction() {
		if s.cfg.OnReduction != nil {
			s.cfg.OnReduction(s.cwnd, s.ssthresh)
		}
		s.ssthresh = math.Max(s.cwnd/2, 2)
		s.cwnd = 1
	}
	s.dupacks = 0
	s.inRecovery = false
	s.epoch++
	s.rto.Backoff()
	s.probeCwnd()
	s.retransmit(s.una)
	// Go-back-N: rewind the send pointer so slow start re-covers the
	// outstanding region (cumulative ACKs skip whatever the receiver
	// already holds).
	s.nextSeq = s.una + 1
	s.restartTimer()
}
