package dupack

import "tcppr/internal/tcp"

// EifelSender is the Eifel algorithm (Ludwig & Katz [15]), the
// timestamp-based spurious-retransmission detector the paper discusses in
// §2: every segment carries a timestamp which the receiver echoes; when
// the first ACK covering a retransmitted sequence echoes a timestamp
// *older* than the retransmission, the ACK must have been triggered by the
// original transmission — the retransmission (and the congestion response
// that came with it) was spurious, and the saved congestion state is
// restored.
//
// The sender is NewReno with Eifel's detection layered on.
// tcp.Seg.Stamp / tcp.Ack.EchoStamp play the role of the TCP timestamp
// option.
type EifelSender struct {
	*RenoSender

	// SpuriousDetected counts Eifel activations.
	SpuriousDetected uint64
}

// Eifel builds an Eifel sender.
func Eifel(env tcp.SenderEnv, cfg Config) *EifelSender {
	return &EifelSender{RenoSender: NewReno(env, cfg)}
}

var _ tcp.Sender = (*EifelSender)(nil)

// OnAck implements tcp.Sender: the Eifel check runs on the first ACK that
// covers the retransmission of the most recent congestion response.
func (s *EifelSender) OnAck(ack tcp.Ack) {
	if r := s.last; r.valid && ack.CumAck > r.seq {
		s.last.valid = false
		if ack.EchoStamp != 0 && ack.EchoStamp < r.at {
			// The echoed timestamp predates the retransmission: the
			// original arrived, the retransmission was spurious.
			s.SpuriousDetected++
			s.RenoSender.OnAck(ack)
			s.restoreState(r.cwnd, r.ssthresh)
			return
		}
	}
	s.RenoSender.OnAck(ack)
}
