// Package dupack implements the duplicate-ACK senders TCP-PR is compared
// against: Reno, NewReno, TD-FR, TCP-DOOR and Eifel on a Reno sender, and
// TCP-SACK with the four Blanton–Allman DSACK responses [3] on a SACK
// sender. The variants differ only in how they detect a loss and how they
// respond to one (PAPER.md §3, Table 1), so both senders embed one
// skeleton, base, that holds everything else once: the window and ACK
// state, RTT sampling, the RFC 6298 retransmission timer, and the
// go-back-N timeout. Each variant is a constructor; the ten the paper and
// its related work name are the only combinations that can be built.
package dupack

import (
	"math"
	"time"

	"tcppr/internal/sim"
	"tcppr/internal/tcp"
)

// Config parameterizes every dupACK sender. The zero value gives the
// paper's setup: an infinite backlog, initial window 1, initial ssthresh
// 20, a 10000-packet receiver window and the tcp package's RFC 6298 timer
// bounds (1 s minimum, 64 s maximum, 3 s initial RTO).
type Config struct {
	// MaxData bounds the transfer at this many segments (0 = infinite
	// backlog). Once everything below MaxData is acknowledged the sender
	// goes quiescent: no new data, timers cancelled.
	MaxData int64
	// InitialSsthresh is the initial slow-start threshold in packets
	// (default 20, the ns-2 TCP agent default the paper's simulations
	// used; negative means unbounded).
	InitialSsthresh float64
}

// defaultMaxCwnd is the receiver-window cap in packets.
const defaultMaxCwnd = 10000

// stdDupThresh is the standard duplicate-ACK threshold, and the floor of
// every threshold a DSACK policy adjusts.
const stdDupThresh = 3

// base is the state and behaviour every dupACK sender shares. Nothing in
// it depends on the variant: where the senders differ, the difference is
// passed in as a value.
type base struct {
	env     tcp.SenderEnv
	maxData int64
	maxCwnd float64

	cwnd      float64
	ssthresh  float64
	una       int64 // lowest unacknowledged sequence
	nextSeq   int64 // next sequence to transmit
	highWater int64 // highest sequence ever sent + 1 (go-back-N boundary)
	dupacks   int

	inRecovery bool
	recover    int64 // highest sequence sent when recovery was entered

	rto      *tcp.RTOEstimator
	times    tcp.SendTimes
	rtxTimer *sim.Timer
	txSeq    int64
	probe    tcp.SenderProbe // nil unless a tracer attached (Reno's SetProbe)

	// Counters for tests and traces.
	FastRecoveries uint64
	Timeouts       uint64
}

func (b *base) init(env tcp.SenderEnv, cfg Config, onTimeout func()) {
	b.env = env
	b.maxData = cfg.MaxData
	b.maxCwnd = defaultMaxCwnd
	b.cwnd = 1
	switch {
	case cfg.InitialSsthresh == 0:
		b.ssthresh = 20
	case cfg.InitialSsthresh < 0:
		b.ssthresh = math.Inf(1)
	default:
		b.ssthresh = cfg.InitialSsthresh
	}
	b.rto = tcp.NewRTOEstimator(0, 0, 0)
	b.rtxTimer = sim.NewTimer(env.Sched, onTimeout)
}

// Cwnd returns the current congestion window in packets.
func (b *base) Cwnd() float64 { return b.cwnd }

// Ssthresh returns the slow-start threshold in packets.
func (b *base) Ssthresh() float64 { return b.ssthresh }

// Una returns the lowest unacknowledged sequence number.
func (b *base) Una() int64 { return b.una }

// InRecovery reports whether the sender is in loss recovery.
func (b *base) InRecovery() bool { return b.inRecovery }

// SRTT returns the smoothed RTT estimate.
func (b *base) SRTT() time.Duration { return b.rto.SRTT() }

// RTO returns the current retransmission timeout (with back-off applied).
func (b *base) RTO() time.Duration { return b.rto.RTO() }

// RTOBounds returns the estimator's [min, max] clamp, for conformance
// checking.
func (b *base) RTOBounds() (min, max time.Duration) { return b.rto.Min(), b.rto.Max() }

// Done reports whether a finite transfer has been fully acknowledged.
func (b *base) Done() bool { return b.maxData > 0 && b.una >= b.maxData }

// dataLimited reports whether seq lies beyond a finite transfer.
func (b *base) dataLimited(seq int64) bool { return b.maxData > 0 && seq >= b.maxData }

// probeCwnd reports the current window pair to an attached probe.
func (b *base) probeCwnd() {
	if b.probe != nil {
		b.probe.ProbeCwnd(b.env.Now(), b.cwnd, b.ssthresh)
	}
}

// advance does the variant-independent part of a cumulative advance:
// report progress to the connection lifecycle, take an RTT sample (none
// for a retransmitted sequence: Karn), and skip a send pointer that a
// timeout rewound below data the receiver already holds.
func (b *base) advance(ack tcp.Ack) {
	b.env.ReportProgress()
	if rtt, ok := b.times.Sample(ack.EchoSeq, b.env.Now()); ok {
		b.rto.OnSample(rtt)
		if b.probe != nil {
			b.probe.ProbeRTT(b.env.Now(), b.rto.SRTT(), b.rto.RTO())
		}
	}
	b.times.Forget(ack.CumAck)
	if ack.CumAck > b.nextSeq {
		b.nextSeq = ack.CumAck
	}
}

// grow opens the window once per new ACK outside recovery: by ssInc in
// slow start (Reno +1, SACK min(acked, 2)), by 1/cwnd in congestion
// avoidance, capped at the receiver window.
func (b *base) grow(ssInc float64) {
	if b.cwnd < b.ssthresh {
		b.cwnd += ssInc
	} else {
		b.cwnd += 1 / b.cwnd
	}
	if b.cwnd > b.maxCwnd {
		b.cwnd = b.maxCwnd
	}
	b.probeCwnd()
}

func (b *base) send(seq int64, retx bool) {
	now := b.env.Now()
	b.times.Sent(seq, now, retx)
	b.txSeq++
	b.env.Transmit(tcp.Seg{Seq: seq, Retx: retx, TxSeq: b.txSeq, Stamp: now})
	if !b.rtxTimer.Pending() {
		b.rtxTimer.ResetAfter(b.rto.RTO())
	}
}

// restartTimer re-arms the retransmission timer if data is outstanding and
// cancels it otherwise (RFC 6298 §5.2–5.3), including when a finite
// transfer completes.
func (b *base) restartTimer() {
	b.rtxTimer.Stop()
	if b.nextSeq > b.una && !b.Done() {
		b.rtxTimer.ResetAfter(b.rto.RTO())
	}
}

// expired reports whether a retransmission timeout should be acted on:
// data is outstanding and the connection survives it.
func (b *base) expired() bool {
	if b.nextSeq == b.una {
		return false // nothing outstanding
	}
	if !b.env.ReportTimeout() {
		return false // connection aborted; Stop has already run
	}
	b.Timeouts++
	return true
}

// timeout is the RTO response after expired: collapse the window to one
// segment unless reduce is false, back the timer off, retransmit una, and
// rewind the send pointer so slow start re-covers the outstanding region
// (go-back-N; cumulative ACKs skip whatever the receiver already holds).
func (b *base) timeout(reduce bool) {
	if reduce {
		b.ssthresh = math.Max(b.cwnd/2, 2)
		b.cwnd = 1
	}
	b.dupacks = 0
	b.inRecovery = false
	b.rto.Backoff()
	b.probeCwnd()
	b.send(b.una, true)
	b.nextSeq = b.una + 1
	b.restartTimer()
}

// Stop cancels the retransmission timer, implementing tcp.Stopper so a
// connection abort leaves no events behind. The flow guards subsequent
// OnAck deliveries, so a stopped sender never re-arms.
func (b *base) Stop() { b.rtxTimer.Stop() }

// Quiescent reports whether the sender holds no pending timers; the
// invariant checker asserts it right after an abort.
func (b *base) Quiescent() bool { return !b.rtxTimer.Pending() }
