package dupack

import (
	"time"

	"tcppr/internal/tcp"
)

// DOORSender is TCP-DOOR (Detection of Out-of-Order and Response, Wang &
// Zhang [20]), the MANET-focused related-work scheme the paper discusses
// in §2: out-of-order delivery is detected explicitly via
// per-transmission sequence numbers carried as TCP options, and the
// sender responds by (1) temporarily disabling congestion control for an
// interval T1 after any out-of-order event and (2) instantly recovering
// the congestion state if a congestion response happened within T2 before
// the event (the response was presumably triggered by reordering, not
// loss).
//
// The sender is NewReno with DOOR's detection and response layered on.
// The per-transmission counter (tcp.Seg.TxSeq / tcp.Ack.EchoTxSeq, plus
// the receiver-computed tcp.Ack.OOO bit) plays the role of [20]'s TCP
// options.
type DOORSender struct {
	*RenoSender

	maxEchoTxSeq int64

	// OOOEvents counts detected out-of-order events; InstantRecoveries
	// counts response-2 activations.
	OOOEvents         uint64
	InstantRecoveries uint64
}

// minT1 floors T1, the congestion-control-disable interval after an
// out-of-order event. [20] leaves the constant open; T1 is one smoothed
// RTT estimate sampled at the event, floored here. T2, the look-back
// window for instant recovery, equals T1.
const minT1 = 100 * time.Millisecond

// DOOR builds a TCP-DOOR sender.
func DOOR(env tcp.SenderEnv, cfg Config) *DOORSender {
	return &DOORSender{RenoSender: NewReno(env, cfg)}
}

var _ tcp.Sender = (*DOORSender)(nil)

// OnAck implements tcp.Sender: DOOR's detection runs before the NewReno
// processing so that response decisions apply to this very ACK.
func (s *DOORSender) OnAck(ack tcp.Ack) {
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
	s.RenoSender.OnAck(ack)
}

// onOOO applies [20]'s two responses.
func (s *DOORSender) onOOO() {
	s.OOOEvents++
	now := s.env.Now()

	t1 := max(s.SRTT(), minT1)
	s.noReduceUntil = max(s.noReduceUntil, now+t1)

	if s.last.valid && now-s.last.at <= t1 { // T2 = T1
		// Instant recovery: the recent congestion response was likely
		// triggered by this reordering event, not by loss.
		s.InstantRecoveries++
		s.restoreState(s.last.cwnd, s.last.ssthresh)
		s.last.valid = false
	}
}
