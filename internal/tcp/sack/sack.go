// Package sack implements a TCP-SACK sender: selective-acknowledgment
// loss recovery in the style of RFC 3517/6675 over the scoreboard the
// receiver's SACK blocks populate. This is the "standard TCP" the paper
// benchmarks TCP-PR's fairness against (§4), and the base the
// Blanton–Allman DSACK dupthresh-adjustment schemes (package dsack)
// build on (§2, [3]).
package sack

import (
	"math"
	"time"

	"tcppr/internal/sim"
	"tcppr/internal/tcp"
)

// DupThreshPolicy adjusts the duplicate-ACK threshold after a spurious
// fast retransmit has been detected via DSACK. Implementations live in
// package dsack ([3]'s four response variants).
type DupThreshPolicy interface {
	// OnSpurious returns the new dupthresh given the current value and
	// the number of duplicate ACKs observed during the spurious episode.
	OnSpurious(current, observedDupAcks int) int
}

// Config parameterizes a SACK sender. The zero value gives standard
// TCP-SACK: dupthresh 3, no DSACK response, no limited transmit. The
// initial window (1), the receiver-window cap (10000 packets) and the tcp
// package's RFC 6298 timer bounds are fixed.
type Config struct {
	// DupThresh is the initial duplicate-ACK / SACK-segment threshold
	// (default 3).
	DupThresh int
	// Policy, when non-nil, enables DSACK-based spurious-retransmission
	// detection: on detection the congestion state saved at recovery
	// entry is restored (by slow-starting back up to the prior cwnd, per
	// [3]) and Policy chooses the new dupthresh.
	Policy DupThreshPolicy
	// ExtendedLimitedTransmit sends one new segment per duplicate ACK
	// while below dupthresh (the extension [3] pairs with raised
	// dupthresh values so the ACK clock never stalls).
	ExtendedLimitedTransmit bool
	// MaxData bounds the transfer at this many segments (0 = infinite
	// backlog). Once everything below MaxData is acknowledged the sender
	// goes quiescent: no new data, timers cancelled.
	MaxData int64
	// InitialSsthresh is the initial slow-start threshold in packets
	// (default 20, the ns-2 TCP agent default the paper's simulations
	// used; negative means unbounded).
	InitialSsthresh float64
}

// maxCwnd is the receiver-window cap in packets.
const maxCwnd = 10000

func (c *Config) fill() {
	if c.DupThresh == 0 {
		c.DupThresh = 3
	}
	if c.InitialSsthresh == 0 {
		c.InitialSsthresh = 20
	} else if c.InitialSsthresh < 0 {
		c.InitialSsthresh = math.Inf(1)
	}
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

// Sender is a TCP-SACK sender with an infinite backlog.
type Sender struct {
	env tcp.SenderEnv
	cfg Config

	cwnd      float64
	ssthresh  float64
	una       int64
	nextSeq   int64
	highWater int64 // highest sequence ever sent + 1 (go-back-N boundary)
	dupacks   int
	dupThresh int

	scoreboard tcp.IntervalSet // SACKed sequences above una
	retxed     tcp.IntervalSet // retransmitted during the current recovery

	inRecovery bool
	recover    int64

	rto      *tcp.RTOEstimator
	times    tcp.SendTimes
	rtxTimer *sim.Timer
	txSeq    int64

	ep episode

	// Counters for tests, traces, and experiments.
	FastRecoveries   uint64
	Timeouts         uint64
	SpuriousDetected uint64
}

// New creates a SACK sender bound to a flow environment.
func New(env tcp.SenderEnv, cfg Config) *Sender {
	cfg.fill()
	s := &Sender{
		env:       env,
		cfg:       cfg,
		cwnd:      1,
		ssthresh:  cfg.InitialSsthresh,
		dupThresh: cfg.DupThresh,
		rto:       tcp.NewRTOEstimator(0, 0, 0),
	}
	s.rtxTimer = sim.NewTimer(env.Sched, s.onTimeout)
	return s
}

var _ tcp.Sender = (*Sender)(nil)

// Cwnd returns the congestion window in packets.
func (s *Sender) Cwnd() float64 { return s.cwnd }

// Ssthresh returns the slow-start threshold.
func (s *Sender) Ssthresh() float64 { return s.ssthresh }

// Una returns the lowest unacknowledged sequence.
func (s *Sender) Una() int64 { return s.una }

// InRecovery reports whether loss recovery is in progress.
func (s *Sender) InRecovery() bool { return s.inRecovery }

// SRTT returns the smoothed RTT estimate.
func (s *Sender) SRTT() time.Duration { return s.rto.SRTT() }

// RTO returns the current retransmission timeout (with back-off applied).
func (s *Sender) RTO() time.Duration { return s.rto.RTO() }

// RTOBounds returns the estimator's [min, max] clamp, for conformance
// checking.
func (s *Sender) RTOBounds() (min, max time.Duration) { return s.rto.Min(), s.rto.Max() }

// Start implements tcp.Sender.
func (s *Sender) Start() { s.fillWindow() }

// OnAck implements tcp.Sender.
func (s *Sender) OnAck(ack tcp.Ack) {
	if ack.CumAck < s.una {
		return // stale, reordered on the reverse path
	}

	// Absorb SACK information (also present on duplicate ACKs).
	for _, b := range ack.Blocks {
		if b.End > s.una {
			start := b.Start
			if start < s.una {
				start = s.una
			}
			s.scoreboard.Add(start, b.End)
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

func (s *Sender) onNewAck(ack tcp.Ack) {
	s.env.ReportProgress()
	if rtt, ok := s.times.Sample(ack.EchoSeq, s.env.Now()); ok {
		s.rto.OnSample(rtt)
	}
	acked := float64(ack.CumAck - s.una)
	s.una = ack.CumAck
	s.times.Forget(s.una)
	s.scoreboard.DropBelow(s.una)
	s.retxed.DropBelow(s.una)
	if ack.CumAck > s.nextSeq {
		// The receiver already holds data beyond our (rewound) send
		// pointer: skip ahead instead of re-sending it.
		s.nextSeq = ack.CumAck
	}

	if s.inRecovery {
		if s.una > s.recover {
			s.inRecovery = false
			s.retxed.Clear()
			s.dupacks = 0
			s.ep.active = s.ep.active && s.cfg.Policy != nil // keep for late DSACKs
		}
		// During recovery the pipe rule in fillWindow paces sends;
		// no window growth.
	} else {
		s.dupacks = 0
		// Grow once per ACK arrival: slow start below ssthresh,
		// congestion avoidance above.
		if s.cwnd < s.ssthresh {
			s.cwnd += math.Min(acked, 2) // at most 2 per ACK (RFC 5681 ABC-lite)
		} else {
			s.cwnd += 1 / s.cwnd
		}
		if s.cwnd > maxCwnd {
			s.cwnd = maxCwnd
		}
	}
	s.restartTimer()
}

func (s *Sender) onDupAck() {
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
func (s *Sender) effectiveDupThresh() int {
	const floor = 3
	flight := int(s.nextSeq - s.una - 1)
	if flight < floor {
		flight = floor
	}
	th := s.dupThresh
	if th > flight {
		th = flight
	}
	return th
}

// isLost implements the RFC 3517 IsLost heuristic at segment granularity:
// a hole is lost once dupthresh segments above it have been SACKed.
func (s *Sender) isLost(seq int64) bool {
	return s.scoreboard.CountAbove(seq) >= int64(s.effectiveDupThresh())
}

func (s *Sender) enterRecovery() {
	s.FastRecoveries++
	s.inRecovery = true
	s.recover = s.nextSeq - 1
	// Save the pre-reduction state for DSACK undo.
	if s.cfg.Policy != nil {
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
func (s *Sender) pipe() int64 {
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
func (s *Sender) nextSegToSend() (seq int64, retx, ok bool) {
	if s.inRecovery {
		for seq := s.una; seq <= s.recover; seq++ {
			if !s.scoreboard.Contains(seq) && !s.retxed.Contains(seq) && s.isLost(seq) {
				return seq, true, true
			}
		}
	}
	return s.nextSeq, false, true
}

// fillWindow transmits while the congestion window has room. Outside
// recovery the classic sliding-window rule applies; during recovery the
// pipe algorithm paces sends.
func (s *Sender) fillWindow() {
	if s.inRecovery {
		for s.pipe() < int64(s.cwnd) {
			seq, retx, ok := s.nextSegToSend()
			if !ok {
				break
			}
			if !retx && s.cfg.MaxData > 0 && seq >= s.cfg.MaxData {
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
		if s.cfg.MaxData > 0 && s.nextSeq >= s.cfg.MaxData {
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

// Done reports whether a finite transfer has been fully acknowledged.
func (s *Sender) Done() bool {
	return s.cfg.MaxData > 0 && s.una >= s.cfg.MaxData
}

func (s *Sender) sendAllowance() int64 {
	allow := s.una + int64(s.cwnd)
	if s.cfg.ExtendedLimitedTransmit && !s.inRecovery {
		allow += int64(s.dupacks)
	}
	return allow
}

func (s *Sender) send(seq int64, retx bool) {
	now := s.env.Now()
	s.times.Sent(seq, now, retx)
	s.txSeq++
	if retx {
		s.retxed.Add(seq, seq+1)
		if s.ep.active {
			s.ep.retxSeqs[seq] = true
		}
	}
	s.env.Transmit(tcp.Seg{Seq: seq, Retx: retx, TxSeq: s.txSeq, Stamp: now})
	if !s.rtxTimer.Pending() {
		s.armTimer()
	}
}

// onDSACK processes a duplicate report. If every segment retransmitted in
// the last recovery episode is reported as a duplicate, the retransmission
// was spurious: restore the saved congestion state (slow-starting back up,
// per [3]) and let the policy adjust dupthresh.
func (s *Sender) onDSACK(b tcp.SackBlock) {
	if s.cfg.Policy == nil || !s.ep.active {
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
	n := s.ep.dupAcks
	if n < s.cfg.DupThresh {
		n = s.cfg.DupThresh
	}
	s.dupThresh = s.cfg.Policy.OnSpurious(s.dupThresh, n)
	if s.dupThresh < 3 {
		s.dupThresh = 3
	}
}

func (s *Sender) armTimer() {
	s.rtxTimer.ResetAfter(s.rto.RTO())
}

// Stop cancels the retransmission timer, implementing tcp.Stopper so a
// connection abort leaves no events behind. The flow guards subsequent
// OnAck deliveries, so a stopped sender never re-arms.
func (s *Sender) Stop() { s.rtxTimer.Stop() }

// Quiescent reports whether the sender holds no pending timers; the
// invariant checker asserts it right after an abort.
func (s *Sender) Quiescent() bool { return !s.rtxTimer.Pending() }

func (s *Sender) restartTimer() {
	s.rtxTimer.Stop()
	if s.nextSeq > s.una && !s.Done() {
		s.armTimer()
	}
}

func (s *Sender) onTimeout() {
	if s.nextSeq == s.una {
		return
	}
	if !s.env.ReportTimeout() {
		return // connection aborted; Stop has already run
	}
	s.Timeouts++
	s.ssthresh = math.Max(s.cwnd/2, 2)
	s.cwnd = 1
	s.dupacks = 0
	s.inRecovery = false
	s.ep.active = false
	s.retxed.Clear()
	// RFC 6675 §5.1: an RTO event clears SACK scoreboard knowledge of
	// what is in the network.
	s.scoreboard.Clear()
	s.rto.Backoff()
	s.send(s.una, true)
	// Go-back-N: rewind the send pointer so slow start re-covers the
	// outstanding region.
	s.nextSeq = s.una + 1
	s.restartTimer()
}
