package tcp

import (
	"math"
	"slices"

	"tcppr/internal/sim"
)

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

// SetDebugPool switches split-flow box poisoning (TCPPR_DEBUG_POOL) and
// returns a function restoring the previous setting.
func SetDebugPool(on bool) (restore func()) {
	was := debugPool
	debugPool = on
	return func() { debugPool = was }
}

// PooledBoxes returns every payload box waiting on a split flow's free and
// spent lists, and whether each carries the poison mark.
func (f *Flow) PooledBoxes() (boxes []any, poisoned []bool) {
	for _, b := range slices.Concat(f.segFree, f.spent.seg) {
		boxes, poisoned = append(boxes, b), append(poisoned, b.Seq == math.MinInt64)
	}
	for _, b := range slices.Concat(f.ackFree, f.spent.ack) {
		boxes, poisoned = append(boxes, b), append(poisoned, b.CumAck == math.MinInt64)
	}
	return boxes, poisoned
}
