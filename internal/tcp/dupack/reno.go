package dupack

import (
	"math"

	"tcppr/internal/sim"
	"tcppr/internal/tcp"
)

// RenoSender is a Reno-family sender: fast retransmit on the third
// duplicate ACK (or TD-FR's timer), fast recovery with window inflation,
// and optionally NewReno partial ACKs. These are the "standard TCP"
// loss-detection mechanisms whose fragility under persistent reordering
// motivates the paper.
type RenoSender struct {
	base

	newReno         bool // partial ACKs keep recovery going (RFC 6582)
	limitedTransmit bool // RFC 3042: new data on the first two duplicate ACKs
	tdfr            bool // TD-FR's recovery-entry timer replaces the third-dupACK rule

	epoch int // increments on recovery entry/exit; invalidates stale TD-FR fires

	// firstDup and tdfrTimer are TD-FR's reordering timer.
	firstDup  sim.Time
	tdfrTimer sim.Handle

	// noReduceUntil suppresses congestion responses before this time
	// (TCP-DOOR's response 1); last is the most recent response, which
	// DOOR and Eifel undo when they find it was caused by reordering.
	noReduceUntil sim.Time
	last          reduction
}

// reduction is one congestion response, recorded so that it can be undone.
type reduction struct {
	valid          bool
	at             sim.Time
	seq            int64   // the sequence retransmitted with the response
	cwnd, ssthresh float64 // pre-response state
}

// Reno builds a classic Reno sender: any new ACK ends fast recovery.
func Reno(env tcp.SenderEnv, cfg Config) *RenoSender {
	s := &RenoSender{}
	s.init(env, cfg, s.onTimeout)
	return s
}

// NewReno builds a NewReno sender: a partial ACK retransmits the next
// hole and stays in recovery (RFC 6582).
func NewReno(env tcp.SenderEnv, cfg Config) *RenoSender {
	s := Reno(env, cfg)
	s.newReno = true
	return s
}

// TDFR builds time-delayed fast recovery, the timer-assisted reordering
// heuristic first proposed by Paxson and analyzed by Blanton–Allman
// [3,18], which the paper compares TCP-PR against: the first duplicate
// ACK starts a timer, and fast retransmit happens only if duplicates
// persist past max(RTT/2, DT), where DT is the spacing between the first
// and third duplicate ACK. The rest is NewReno with RFC 3042 limited
// transmit (per [3], limited transmit is what keeps TD-FR's delayed
// retransmissions from going bursty — and the paper notes it is only
// partly successful at long RTTs).
func TDFR(env tcp.SenderEnv, cfg Config) *RenoSender {
	s := NewReno(env, cfg)
	s.limitedTransmit = true
	s.tdfr = true
	return s
}

var _ tcp.Sender = (*RenoSender)(nil)
var _ tcp.ProbeSetter = (*RenoSender)(nil)

// SetProbe implements tcp.ProbeSetter.
func (s *RenoSender) SetProbe(p tcp.SenderProbe) { s.probe = p }

// restoreState reinstates a recorded congestion state: the window
// slow-starts back up to the restored cwnd rather than jumping, following
// [3]'s burst-avoidance advice. Any recovery in progress is abandoned.
// TCP-DOOR's instant recovery and Eifel's spurious-retransmission response
// both use this.
func (s *RenoSender) restoreState(cwnd, ssthresh float64) {
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
func (s *RenoSender) Start() { s.trySend() }

// OnAck implements tcp.Sender.
func (s *RenoSender) OnAck(ack tcp.Ack) {
	switch {
	case ack.CumAck > s.una:
		s.onNewAck(ack)
	case ack.CumAck == s.una && s.nextSeq > s.una:
		s.onDupAck()
	default:
		// Stale ACK reordered on the reverse path; ignore.
		return
	}
	s.trySend()
}

func (s *RenoSender) onNewAck(ack tcp.Ack) {
	s.advance(ack)
	// A cumulative advance means the duplicates were reordering, not
	// loss: cancel a pending TD-FR retransmit.
	s.tdfrTimer.Cancel()

	if s.inRecovery {
		if ack.CumAck > s.recover {
			// Full recovery: deflate to ssthresh and resume.
			s.exitRecovery()
			s.una = ack.CumAck
		} else if s.newReno {
			// Partial ACK: retransmit the next hole, deflate by the
			// amount acked, stay in recovery (RFC 6582).
			acked := float64(ack.CumAck - s.una)
			s.una = ack.CumAck
			s.cwnd = math.Max(s.cwnd-acked+1, 1)
			s.probeCwnd()
			s.send(s.una, true)
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
		s.grow(1)
	}
	s.restartTimer()
}

func (s *RenoSender) exitRecovery() {
	s.inRecovery = false
	s.epoch++
	s.dupacks = 0
	s.cwnd = s.ssthresh
	if s.probe != nil {
		s.probe.ProbeRecovery(s.env.Now(), false, "fast-recovery")
	}
	s.probeCwnd()
}

func (s *RenoSender) onDupAck() {
	s.dupacks++
	if s.inRecovery {
		// Window inflation: each duplicate signals one departure.
		s.cwnd = math.Min(s.cwnd+1, s.maxCwnd)
		return
	}
	if !s.tdfr {
		if s.dupacks == stdDupThresh {
			s.enterRecovery()
		}
		return
	}
	// TD-FR: arm at the first duplicate for firstDup + RTT/2; on the
	// third extend the deadline to firstDup + max(RTT/2, DT).
	now := s.env.Now()
	wait := s.rto.SRTT() / 2
	switch s.dupacks {
	case 1:
		s.firstDup = now
	case 3:
		wait = max(wait, now-s.firstDup)
	default:
		return
	}
	s.tdfrTimer.Cancel()
	if deadline := s.firstDup + wait; deadline > now {
		epoch := s.epoch
		s.tdfrTimer = s.env.Sched.At(deadline, func() {
			if s.epoch == epoch && !s.inRecovery && s.dupacks > 0 {
				s.enterRecovery()
			}
		})
		return
	}
	s.enterRecovery() // a deadline already past fires at once
}

// enterRecovery performs fast retransmit + fast recovery entry.
func (s *RenoSender) enterRecovery() {
	s.FastRecoveries++
	s.send(s.una, true)
	if s.env.Now() < s.noReduceUntil {
		s.restartTimer()
		return // congestion control disabled (TCP-DOOR response 1)
	}
	s.inRecovery = true
	s.epoch++
	s.recover = s.nextSeq - 1
	s.record()
	if s.probe != nil {
		s.probe.ProbeRecovery(s.env.Now(), true, "fast-recovery")
	}
	s.ssthresh = math.Max(s.cwnd/2, 2)
	s.cwnd = s.ssthresh + float64(s.dupacks)
	s.probeCwnd()
	s.restartTimer()
	s.trySend()
}

// record notes a congestion response about to be applied.
func (s *RenoSender) record() {
	s.last = reduction{valid: true, at: s.env.Now(), seq: s.una, cwnd: s.cwnd, ssthresh: s.ssthresh}
}

// sendAllowance returns the highest sequence (exclusive) the sender may
// currently transmit.
func (s *RenoSender) sendAllowance() int64 {
	allow := s.una + int64(s.cwnd)
	if s.limitedTransmit && !s.inRecovery && s.dupacks > 0 {
		allow += int64(min(s.dupacks, 2))
	}
	return allow
}

func (s *RenoSender) trySend() {
	for s.nextSeq < s.sendAllowance() {
		if s.dataLimited(s.nextSeq) {
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

// Stop cancels every pending timer the sender owns — the retransmission
// timer and TD-FR's reordering timer — implementing tcp.Stopper.
func (s *RenoSender) Stop() {
	s.base.Stop()
	s.tdfrTimer.Cancel()
}

// Quiescent reports whether the sender holds no pending timers.
func (s *RenoSender) Quiescent() bool { return s.base.Quiescent() && !s.tdfrTimer.Pending() }

func (s *RenoSender) onTimeout() {
	if !s.expired() {
		return
	}
	if s.probe != nil {
		s.probe.ProbeLossTimer(s.env.Now(), s.una, "rto")
		if s.inRecovery {
			s.probe.ProbeRecovery(s.env.Now(), false, "fast-recovery")
		}
	}
	reduce := s.env.Now() >= s.noReduceUntil
	if reduce {
		s.record()
	}
	s.epoch++
	s.timeout(reduce)
}
