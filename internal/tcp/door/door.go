// Package door implements TCP-DOOR (Detection of Out-of-Order and
// Response, Wang & Zhang [20]), the MANET-focused related-work scheme the
// paper discusses in §2: out-of-order delivery is detected explicitly via
// per-transmission sequence numbers carried as TCP options, and the sender
// responds by (1) temporarily disabling congestion control for an interval
// T1 after any out-of-order event and (2) instantly recovering the
// congestion state if a congestion response happened within T2 before the
// event (the response was presumably triggered by reordering, not loss).
//
// The sender is the NewReno machinery from package reno with DOOR's
// detection and response layered on through reno's reduction hooks. The
// per-transmission counter (tcp.Seg.TxSeq / tcp.Ack.EchoTxSeq, plus the
// receiver-computed tcp.Ack.OOO bit) plays the role of [20]'s TCP options.
package door

import (
	"time"

	"tcppr/internal/sim"
	"tcppr/internal/tcp"
	"tcppr/internal/tcp/reno"
)

// Config parameterizes TCP-DOOR.
type Config struct {
	// Reno configures the underlying NewReno sender.
	Reno reno.Config
}

// minT1 floors T1, the congestion-control-disable interval after an
// out-of-order event. [20] leaves the constant open; T1 is one smoothed
// RTT estimate sampled at the event, floored here. T2, the look-back
// window for instant recovery, equals T1.
const minT1 = 100 * time.Millisecond

// Sender is a TCP-DOOR sender.
type Sender struct {
	*reno.Sender
	sched *sim.Scheduler

	maxEchoTxSeq int64
	oooUntil     sim.Time

	lastReduction struct {
		at             sim.Time
		cwnd, ssthresh float64
		valid          bool
	}

	// OOOEvents counts detected out-of-order events; InstantRecoveries
	// counts response-2 activations.
	OOOEvents         uint64
	InstantRecoveries uint64
}

// New builds a TCP-DOOR sender.
func New(env tcp.SenderEnv, cfg Config) *Sender {
	s := &Sender{sched: env.Sched}
	rcfg := cfg.Reno
	rcfg.NewReno = true
	rcfg.GateReduction = func() bool { return env.Sched.Now() >= s.oooUntil }
	rcfg.OnReduction = func(preCwnd, preSsthr float64) {
		s.lastReduction.at = env.Sched.Now()
		s.lastReduction.cwnd = preCwnd
		s.lastReduction.ssthresh = preSsthr
		s.lastReduction.valid = true
	}
	s.Sender = reno.New(env, rcfg)
	return s
}

var _ tcp.Sender = (*Sender)(nil)

// OnAck implements tcp.Sender: DOOR's detection runs before the NewReno
// processing so that response decisions apply to this very ACK.
func (s *Sender) OnAck(ack tcp.Ack) {
	ooo := ack.OOO // receiver-detected out-of-order data delivery
	if ack.EchoTxSeq != 0 {
		// Sender-side detection: the ACK stream echoes transmission
		// counters; a decrease means ACKs were reordered on the
		// reverse path.
		if ack.EchoTxSeq < s.maxEchoTxSeq {
			ooo = true
		} else {
			s.maxEchoTxSeq = ack.EchoTxSeq
		}
	}
	if ooo {
		s.onOOO()
	}
	s.Sender.OnAck(ack)
}

// onOOO applies [20]'s two responses.
func (s *Sender) onOOO() {
	s.OOOEvents++
	now := s.sched.Now()

	t1 := max(s.SRTT(), minT1)
	if until := now + t1; until > s.oooUntil {
		s.oooUntil = until
	}

	if s.lastReduction.valid && now-s.lastReduction.at <= t1 { // T2 = T1
		// Instant recovery: the recent congestion response was likely
		// triggered by this reordering event, not by loss.
		s.InstantRecoveries++
		s.RestoreState(s.lastReduction.cwnd, s.lastReduction.ssthresh)
		s.lastReduction.valid = false
	}
}
