package dupack

import (
	"testing"
	"time"

	"tcppr/internal/sim"
	"tcppr/internal/tcp"
)

// harness drives a sender directly, playing the role of both the network
// and the receiver, so tests can script exact ACK sequences.
type harness struct {
	sched *sim.Scheduler
	sent  []tcp.Seg
}

func newHarness() *harness { return &harness{sched: sim.NewScheduler()} }

func (h *harness) env() tcp.SenderEnv {
	return tcp.SenderEnv{
		Sched: h.sched,
		Transmit: func(seg tcp.Seg) bool {
			h.sent = append(h.sent, seg)
			return true
		},
	}
}

// take returns the segments sent since the last call.
func (h *harness) take() []tcp.Seg {
	out := h.sent
	h.sent = nil
	return out
}

// cum delivers a plain cumulative ACK echoing seq n-1.
func cum(n int64) tcp.Ack { return tcp.Ack{CumAck: n, EchoSeq: n - 1} }

// dupAck builds a duplicate ACK at cum triggered by seq echo.
func dupAck(cum, echo int64) tcp.Ack { return tcp.Ack{CumAck: cum, EchoSeq: echo} }

// sackAck builds a duplicate ACK at una with the given SACK blocks.
func sackAck(una int64, echo int64, blocks ...tcp.SackBlock) tcp.Ack {
	return tcp.Ack{CumAck: una, EchoSeq: echo, Blocks: blocks}
}

type sender interface {
	tcp.Sender
	Cwnd() float64
}

// grow starts s and acknowledges every segment in order, one rtt after
// each flight, until cwnd reaches at least n. Each ACK echoes its
// segment's sequence, transmission counter and timestamp. It returns the
// cumulative ACK point.
func grow(t *testing.T, h *harness, s sender, n float64, rtt time.Duration) int64 {
	t.Helper()
	s.Start()
	acked := int64(0)
	for s.Cwnd() < n {
		segs := h.take()
		if len(segs) == 0 {
			t.Fatal("sender stalled during growth")
		}
		h.sched.RunUntil(h.sched.Now() + rtt)
		for _, seg := range segs {
			if seg.Seq != acked {
				t.Fatalf("unexpected send order: got %d, want %d", seg.Seq, acked)
			}
			acked++
			s.OnAck(tcp.Ack{CumAck: acked, EchoSeq: seg.Seq, EchoTxSeq: seg.TxSeq, EchoStamp: seg.Stamp})
		}
	}
	h.take()
	return acked
}
