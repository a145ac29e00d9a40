package dupack

import (
	"math"

	"tcppr/internal/tcp"
)

// SACKSender is a TCP-SACK sender: selective-acknowledgment loss recovery
// in the style of RFC 3517/6675 over the scoreboard the receiver's SACK
// blocks populate. It is the "standard TCP" the paper benchmarks TCP-PR's
// fairness against (§4), and with a dupthresh policy it is one of the
// Blanton–Allman DSACK schemes (§2, [3]).
type SACKSender struct {
	base

	dupThresh int

	scoreboard tcp.IntervalSet // SACKed sequences above una
	retxed     tcp.IntervalSet // retransmitted during the current recovery

	// policy, when non-nil, enables DSACK-based spurious-retransmission
	// detection: on detection the congestion state saved at recovery
	// entry is restored and policy chooses the new dupthresh.
	policy dupThreshPolicy
	ep     episode

	// SpuriousDetected counts DSACK-proven spurious recoveries.
	SpuriousDetected uint64
}

// episode records the congestion state saved at fast-recovery entry so a
// DSACK-detected spurious retransmission can undo the window reduction.
type episode struct {
	active   bool
	preCwnd  float64
	preSsthr float64
	retxSeqs map[int64]bool // sequences fast-retransmitted in this episode
	dsacked  int            // how many of them were DSACKed
	dupAcks  int            // duplicate ACKs observed during the episode
}

// SACK builds standard TCP-SACK: dupthresh 3, no DSACK response, no
// limited transmit.
func SACK(env tcp.SenderEnv, cfg Config) *SACKSender {
	s := &SACKSender{dupThresh: stdDupThresh}
	s.init(env, cfg, s.onTimeout)
	return s
}

var _ tcp.Sender = (*SACKSender)(nil)

// Start implements tcp.Sender.
func (s *SACKSender) Start() { s.fillWindow() }

// OnAck implements tcp.Sender.
func (s *SACKSender) OnAck(ack tcp.Ack) {
	if ack.CumAck < s.una {
		return // stale, reordered on the reverse path
	}

	// Absorb SACK information (also present on duplicate ACKs).
	for _, b := range ack.Blocks {
		if b.End > s.una {
			s.scoreboard.Add(max(b.Start, s.una), b.End)
		}
	}
	if ack.DSACK != nil {
		s.onDSACK(*ack.DSACK)
	}

	if ack.CumAck > s.una {
		s.onNewAck(ack)
	} else if s.nextSeq > s.una {
		s.onDupAck()
	}
	s.fillWindow()
}

func (s *SACKSender) onNewAck(ack tcp.Ack) {
	s.advance(ack)
	acked := float64(ack.CumAck - s.una)
	s.una = ack.CumAck
	s.scoreboard.DropBelow(s.una)
	s.retxed.DropBelow(s.una)

	if s.inRecovery {
		if s.una > s.recover {
			// The episode stays active for late DSACKs.
			s.inRecovery = false
			s.retxed.Clear()
			s.dupacks = 0
		}
		// During recovery the pipe rule in fillWindow paces sends;
		// no window growth.
	} else {
		s.dupacks = 0
		s.grow(math.Min(acked, 2)) // at most 2 per ACK (RFC 5681 ABC-lite)
	}
	s.restartTimer()
}

func (s *SACKSender) onDupAck() {
	s.dupacks++
	if s.ep.active {
		s.ep.dupAcks++
	}
	if s.inRecovery {
		return // pipe accounting paces transmissions
	}
	// RFC 6675 entry conditions: dupthresh duplicate ACKs, or the
	// scoreboard already shows dupthresh SACKed segments above una.
	if s.dupacks >= s.effectiveDupThresh() || s.isLost(s.una) {
		s.enterRecovery()
	}
}

// effectiveDupThresh caps a raised threshold so it stays triggerable with
// the data actually outstanding (a dupthresh larger than the flight size
// could never fire; [3] applies the same guard). The cap never descends
// below the standard threshold of 3: TCP-SACK keeps dupthresh 3 even at
// tiny windows (and times out instead).
func (s *SACKSender) effectiveDupThresh() int {
	flight := max(int(s.nextSeq-s.una-1), stdDupThresh)
	return min(s.dupThresh, flight)
}

// isLost implements the RFC 3517 IsLost heuristic at segment granularity:
// a hole is lost once dupthresh segments above it have been SACKed.
func (s *SACKSender) isLost(seq int64) bool {
	return s.scoreboard.CountAbove(seq) >= int64(s.effectiveDupThresh())
}

func (s *SACKSender) enterRecovery() {
	s.FastRecoveries++
	s.inRecovery = true
	s.recover = s.nextSeq - 1
	// Save the pre-reduction state for DSACK undo.
	if s.policy != nil {
		s.ep = episode{
			active:   true,
			preCwnd:  s.cwnd,
			preSsthr: s.ssthresh,
			retxSeqs: make(map[int64]bool),
			dupAcks:  s.dupacks,
		}
	}
	s.ssthresh = math.Max(s.cwnd/2, 2)
	s.cwnd = s.ssthresh
	s.retxed.Clear()
	// Fast retransmit: resend the head hole immediately (the pipe rule
	// paces everything after it).
	s.send(s.una, true)
	s.restartTimer()
}

// pipe estimates the packets still in flight (RFC 3517 §4).
func (s *SACKSender) pipe() int64 {
	var p int64
	for seq := s.una; seq < s.nextSeq; seq++ {
		if s.scoreboard.Contains(seq) {
			continue
		}
		if !s.isLost(seq) {
			p++
		}
		if s.retxed.Contains(seq) {
			p++
		}
	}
	return p
}

// nextSegToSend implements RFC 3517 NextSeg: first retransmit lost holes,
// then send new data.
func (s *SACKSender) nextSegToSend() (seq int64, retx bool) {
	for seq := s.una; seq <= s.recover; seq++ {
		if !s.scoreboard.Contains(seq) && !s.retxed.Contains(seq) && s.isLost(seq) {
			return seq, true
		}
	}
	return s.nextSeq, false
}

// fillWindow transmits while the congestion window has room. Outside
// recovery the classic sliding-window rule applies; during recovery the
// pipe algorithm paces sends.
func (s *SACKSender) fillWindow() {
	if s.inRecovery {
		for s.pipe() < int64(s.cwnd) {
			seq, retx := s.nextSegToSend()
			if !retx && s.dataLimited(seq) {
				break // finite transfer: no data beyond the limit
			}
			s.send(seq, retx)
			if !retx {
				s.nextSeq++
			}
		}
		return
	}
	for s.nextSeq < s.sendAllowance() {
		if s.dataLimited(s.nextSeq) {
			return // finite transfer: no data beyond the limit
		}
		// When re-covering a timeout-rewound region, skip sequences the
		// scoreboard already shows as delivered.
		if s.nextSeq < s.highWater && s.scoreboard.Contains(s.nextSeq) {
			s.nextSeq++
			continue
		}
		s.send(s.nextSeq, s.nextSeq < s.highWater)
		s.nextSeq++
		if s.nextSeq > s.highWater {
			s.highWater = s.nextSeq
		}
	}
}

func (s *SACKSender) sendAllowance() int64 {
	allow := s.una + int64(s.cwnd)
	if s.policy != nil && !s.inRecovery {
		// Extended limited transmit: one new segment per duplicate ACK
		// below dupthresh, which [3] pairs with every DSACK policy so a
		// raised threshold never stalls the ACK clock.
		allow += int64(s.dupacks)
	}
	return allow
}

// send records a retransmission on the recovery scoreboard and the DSACK
// episode, then transmits.
func (s *SACKSender) send(seq int64, retx bool) {
	if retx {
		s.retxed.Add(seq, seq+1)
		if s.ep.active {
			s.ep.retxSeqs[seq] = true
		}
	}
	s.base.send(seq, retx)
}

// onDSACK processes a duplicate report. If every segment retransmitted in
// the last recovery episode is reported as a duplicate, the retransmission
// was spurious: restore the saved congestion state (slow-starting back up,
// per [3]) and let the policy adjust dupthresh.
func (s *SACKSender) onDSACK(b tcp.SackBlock) {
	if s.policy == nil || !s.ep.active {
		return
	}
	hit := false
	for seq := b.Start; seq < b.End; seq++ {
		if s.ep.retxSeqs[seq] {
			delete(s.ep.retxSeqs, seq)
			s.ep.dsacked++
			hit = true
		}
	}
	if !hit || len(s.ep.retxSeqs) > 0 || s.ep.dsacked == 0 {
		return
	}
	// Entire episode spurious.
	s.SpuriousDetected++
	s.ep.active = false
	// Undo: slow-start back up to the pre-reduction window.
	s.ssthresh = s.ep.preCwnd
	s.inRecovery = false
	s.retxed.Clear()
	s.dupacks = 0
	s.dupThresh = max(s.policy.onSpurious(s.dupThresh, max(s.ep.dupAcks, stdDupThresh)), stdDupThresh)
}

func (s *SACKSender) onTimeout() {
	if !s.expired() {
		return
	}
	s.ep.active = false
	s.retxed.Clear()
	// RFC 6675 §5.1: an RTO event clears SACK scoreboard knowledge of
	// what is in the network.
	s.scoreboard.Clear()
	s.timeout(true)
	// timeout retransmitted una through base.send; record it as
	// SACKSender.send would have.
	s.retxed.Add(s.una, s.una+1)
}
