package stats

// ReorderMeter measures how reordered an arrival stream actually was,
// online and allocation-free after construction. Feed it the send index
// of every (non-retransmitted) arrival; it reports the RFC 4737-style
// late-arrival rate, the displacement distribution, and two
// almost-sorted permutation measures from the Hansson–Istrate line of
// work: the bounded-displacement k (max extent — the stream is a
// k-almost-sorted permutation) and the normalized Spearman footrule
// (mean displacement per arrival).
//
// Extent here is the standard receiver-side measure: an arrival with
// send index i is late by (max send index seen so far) − i. In-order
// arrivals have extent 0 and only advance the frontier.
type ReorderMeter struct {
	arrivals uint64
	late     uint64
	maxSeen  int64
	seen     bool
	// hist[d-1] counts late arrivals with extent exactly d, for
	// d in [1, len(hist)]; larger extents land in overflow.
	hist      []uint64
	overflow  uint64
	sumExtent uint64
	maxExtent int64
}

// NewReorderMeter returns a meter tracking exact displacement counts up
// to maxTracked positions (larger displacements are still measured in
// the aggregates, but lumped into one overflow bucket).
func NewReorderMeter(maxTracked int) *ReorderMeter {
	if maxTracked < 1 {
		maxTracked = 1
	}
	return &ReorderMeter{hist: make([]uint64, maxTracked)}
}

// Observe records one arrival by its send index (0-based sequence
// position in transmission order).
func (m *ReorderMeter) Observe(idx int64) {
	m.arrivals++
	if !m.seen || idx > m.maxSeen {
		m.maxSeen = idx
		m.seen = true
		return
	}
	ext := m.maxSeen - idx
	m.late++
	m.sumExtent += uint64(ext)
	if ext > m.maxExtent {
		m.maxExtent = ext
	}
	if ext >= 1 && ext <= int64(len(m.hist)) {
		m.hist[ext-1]++
	} else if ext > int64(len(m.hist)) {
		m.overflow++
	}
}

// Arrivals returns the number of observed arrivals.
func (m *ReorderMeter) Arrivals() uint64 { return m.arrivals }

// Late returns the number of late (reordered or duplicate-index)
// arrivals.
func (m *ReorderMeter) Late() uint64 { return m.late }

// Rate returns the fraction of arrivals that were late — the RFC 4737
// reordered-packet ratio.
func (m *ReorderMeter) Rate() float64 {
	if m.arrivals == 0 {
		return 0
	}
	return float64(m.late) / float64(m.arrivals)
}

// KBound returns the maximum observed displacement: the arrival stream
// is a k-almost-sorted (bounded-displacement) permutation of the send
// order with k = KBound. Zero means perfectly in order.
func (m *ReorderMeter) KBound() int64 { return m.maxExtent }

// Footrule returns the normalized Spearman footrule: total displacement
// divided by total arrivals, i.e. the mean positions-late per packet
// across the whole stream.
func (m *ReorderMeter) Footrule() float64 {
	if m.arrivals == 0 {
		return 0
	}
	return float64(m.sumExtent) / float64(m.arrivals)
}

// Histogram returns a copy of the displacement distribution:
// Histogram()[d-1] arrivals were late by exactly d positions, for d up
// to the tracked cap.
func (m *ReorderMeter) Histogram() []uint64 {
	out := make([]uint64, len(m.hist))
	copy(out, m.hist)
	return out
}

// Overflow returns the count of late arrivals displaced beyond the
// tracked histogram cap.
func (m *ReorderMeter) Overflow() uint64 { return m.overflow }
