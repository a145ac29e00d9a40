// Package tcp provides the packet-level TCP framework shared by every
// congestion-control variant in this repository: segment and ACK
// representations, a standards-style receiver (cumulative ACKs plus SACK
// and DSACK generation), an RFC 6298 retransmission-timeout estimator, and
// the Flow plumbing that wires a sender and a receiver onto a netem
// topology through (possibly multipath) routers.
//
// Following ns-2's simulated-TCP convention — which is also what the paper
// used — sequence numbers count segments, not bytes: one sequence unit is
// one fixed-size packet. Data packets are PktSize bytes on the wire and
// ACKs are AckSize bytes.
package tcp

import (
	"fmt"
	"time"

	"tcppr/internal/sim"
)

// Seg is a TCP data segment as seen by the simulator.
type Seg struct {
	// Seq is the segment sequence number (in packets, ns-2 style).
	Seq int64
	// Retx marks retransmissions, for traces and receiver-side metrics.
	Retx bool
	// TxSeq is a per-transmission counter (incremented for every data
	// packet sent, including retransmissions). TCP-DOOR uses it to detect
	// out-of-order delivery; other variants ignore it.
	TxSeq int64
	// Stamp is the sender timestamp (TCP timestamp option). Eifel uses it
	// for spurious-retransmission detection; other variants ignore it.
	Stamp sim.Time
}

// RepairSeq implements netem.SequencedPayload: an in-network
// reorder-repair middlebox resequences data segments by Seq. Declared on
// the value receiver so both Seg and the pooled *Seg payload boxes
// satisfy the interface.
func (s Seg) RepairSeq() int64 { return s.Seq }

// SackBlock is a half-open received-sequence interval [Start, End).
type SackBlock struct {
	Start, End int64
}

// Contains reports whether seq lies inside the block.
func (b SackBlock) Contains(seq int64) bool { return seq >= b.Start && seq < b.End }

func (b SackBlock) String() string { return fmt.Sprintf("[%d,%d)", b.Start, b.End) }

// Ack is an acknowledgment as seen by the simulator. Every received data
// segment triggers exactly one ACK (delayed ACKs are off, matching the
// paper's ns-2 configuration).
type Ack struct {
	// CumAck is the cumulative acknowledgment: the next sequence number
	// the receiver expects. All segments below CumAck were received.
	CumAck int64
	// Blocks are SACK blocks (most recently changed first, at most 3),
	// or nil when the receiver has no out-of-order data.
	Blocks []SackBlock
	// DSACK reports a duplicate arrival (RFC 2883), or nil.
	DSACK *SackBlock
	// EchoSeq is the sequence number of the data segment that triggered
	// this ACK.
	EchoSeq int64
	// EchoStamp echoes the triggering segment's timestamp (TCP timestamp
	// echo). Eifel uses it; other variants ignore it.
	EchoStamp sim.Time
	// EchoTxSeq echoes the triggering segment's transmission counter and
	// OOO reports receiver-observed data reordering. TCP-DOOR uses these;
	// other variants ignore them.
	EchoTxSeq int64
	OOO       bool
}

// ClonePayload implements netem's payload-duplication seam: a link-layer
// duplicate must not share a pooled payload box with the original, or the
// first copy's arrival would recycle storage the second copy still reads.
func (s *Seg) ClonePayload() any {
	c := *s
	return &c
}

// ClonePayload deep-copies the SACK blocks too — they alias the box's own
// recycled backing array. The DSACK pointer may be shared: the receiver
// allocates it fresh per duplicate arrival and never mutates it.
func (a *Ack) ClonePayload() any {
	c := *a
	if len(a.Blocks) > 0 {
		c.Blocks = append([]SackBlock(nil), a.Blocks...)
	} else {
		c.Blocks = nil
	}
	return &c
}

// Sender is a TCP sender congestion-control engine. A Sender is owned by
// exactly one Flow; the flow calls Start once and OnAck for every ACK that
// survives the reverse path.
type Sender interface {
	// Start begins transmission (the flow is connected and the virtual
	// clock is at the flow's start time).
	Start()
	// OnAck delivers one acknowledgment to the sender.
	OnAck(Ack)
}

// SenderProbe receives a sender's internal control-plane transitions —
// window moves, estimator updates, loss-timer verdicts, recovery
// entry/exit. It is the sender-side tracing seam: internal/span installs
// one per flow to put congestion state on the same timeline as the packet
// lifecycle events. Senders hold the probe in a nil-checked field, so a
// detached sender pays one predictable branch per site. The kind strings
// are package-level constants at every call site (no per-event formatting
// or allocation).
type SenderProbe interface {
	// ProbeCwnd reports the congestion window and slow-start threshold
	// after a change, in packets.
	ProbeCwnd(now sim.Time, cwnd, ssthresh float64)
	// ProbeRTT reports an estimator update: the smoothed estimate and the
	// derived loss-detection threshold (TCP-PR: ewrtt and mxrtt = β·ewrtt;
	// RFC senders: srtt and RTO).
	ProbeRTT(now sim.Time, estimate, threshold time.Duration)
	// ProbeLossTimer reports a loss verdict on one sequence: kind is
	// "pr-timer" (TCP-PR mxrtt deadline), "pr-revealed" (TCP-PR
	// head-of-line reveal), or "rto" (RFC timeout).
	ProbeLossTimer(now sim.Time, seq int64, kind string)
	// ProbeRecovery reports entering (entered=true) or leaving a recovery
	// episode; kind is "fast-recovery" or "extreme-loss".
	ProbeRecovery(now sim.Time, entered bool, kind string)
}

// ProbeSetter is implemented by senders that can report their internal
// transitions to a SenderProbe. Attachment is optional: consumers
// type-assert and degrade gracefully for senders that don't implement it.
type ProbeSetter interface {
	SetProbe(SenderProbe)
}

// SenderEnv is the environment a Flow hands to the sender it hosts.
type SenderEnv struct {
	// Sched is the shared simulation scheduler (clock + timers).
	Sched *sim.Scheduler
	// Transmit sends one data segment into the network. It returns false
	// if the first hop tail-dropped the packet (the segment is still
	// "in flight" from the sender's perspective — loss detection works
	// exactly as for an in-network drop).
	Transmit func(seg Seg) bool

	// lc is the owning flow's connection lifecycle (nil on a bare env, as
	// sender unit tests build). Senders reach it only through
	// ReportTimeout/ReportProgress.
	lc *lifecycle
}

// Now returns the current virtual time.
func (e SenderEnv) Now() sim.Time { return e.Sched.Now() }
