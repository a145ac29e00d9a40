package tcp

import "tcppr/internal/sim"

// HasSample reports whether at least one RTT sample has been absorbed.
func (e *RTOEstimator) HasSample() bool { return e.hasRTT }

// WasRetx reports whether seq was ever retransmitted.
func (t *SendTimes) WasRetx(seq int64) bool { return t.retx[seq] }

// Len returns the total number of sequences in the set.
func (s *IntervalSet) Len() int64 {
	var n int64
	for _, b := range s.blocks {
		n += b.Len()
	}
	return n
}

// Max returns the largest sequence in the set; ok is false when empty.
func (s *IntervalSet) Max() (seq int64, ok bool) {
	if len(s.blocks) == 0 {
		return 0, false
	}
	return s.blocks[len(s.blocks)-1].End - 1, true
}

// Len returns the block length in segments.
func (b SackBlock) Len() int64 { return b.End - b.Start }

// SentAt returns the last transmission time for seq.
func (t *SendTimes) SentAt(seq int64) (sim.Time, bool) {
	at, ok := t.times[seq]
	return at, ok
}
