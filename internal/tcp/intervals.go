package tcp

import "sort"

// IntervalSet is an ordered set of disjoint half-open sequence intervals.
// The TCP receiver uses one to track out-of-order data and the SACK sender
// uses one as its scoreboard. The zero value is an empty set ready to use.
type IntervalSet struct {
	blocks []SackBlock // sorted by Start, disjoint, non-adjacent
}

// Add inserts [start, end) into the set, merging with any overlapping or
// adjacent intervals. It reports whether any sequence in the range was new.
func (s *IntervalSet) Add(start, end int64) bool {
	if start >= end {
		return false
	}
	i := sort.Search(len(s.blocks), func(i int) bool { return s.blocks[i].End >= start })
	j := i
	newStart, newEnd := start, end
	added := false
	// Merge every block that overlaps or touches [start, end).
	for j < len(s.blocks) && s.blocks[j].Start <= end {
		b := s.blocks[j]
		if b.Start > newStart || b.End < newEnd {
			added = true // the union strictly grows some block
		}
		if b.Start < newStart {
			newStart = b.Start
		}
		if b.End > newEnd {
			newEnd = b.End
		}
		j++
	}
	if i == j {
		added = true // no overlap at all: the whole range is new
	} else if !added {
		// [start,end) was fully inside the single merged block.
		covered := s.blocks[i].Start <= start && s.blocks[i].End >= end
		added = !covered
	}
	if i == j {
		s.blocks = append(s.blocks, SackBlock{})
		copy(s.blocks[i+1:], s.blocks[i:])
		s.blocks[i] = SackBlock{Start: newStart, End: newEnd}
		return true
	}
	s.blocks[i] = SackBlock{Start: newStart, End: newEnd}
	s.blocks = append(s.blocks[:i+1], s.blocks[j:]...)
	return added
}

// Contains reports whether seq is in the set.
func (s *IntervalSet) Contains(seq int64) bool {
	i := sort.Search(len(s.blocks), func(i int) bool { return s.blocks[i].End > seq })
	return i < len(s.blocks) && s.blocks[i].Start <= seq
}

// ContainsRange reports whether the whole of [start, end) is in the set.
func (s *IntervalSet) ContainsRange(start, end int64) bool {
	if start >= end {
		return true
	}
	i := sort.Search(len(s.blocks), func(i int) bool { return s.blocks[i].End > start })
	return i < len(s.blocks) && s.blocks[i].Start <= start && s.blocks[i].End >= end
}

// CountAbove returns the number of sequences in the set strictly greater
// than seq.
func (s *IntervalSet) CountAbove(seq int64) int64 {
	var n int64
	for i := len(s.blocks) - 1; i >= 0; i-- {
		b := s.blocks[i]
		if b.End <= seq+1 {
			break
		}
		lo := b.Start
		if lo < seq+1 {
			lo = seq + 1
		}
		n += b.End - lo
	}
	return n
}

// NextGapAbove returns the first sequence >= seq that is NOT in the set.
func (s *IntervalSet) NextGapAbove(seq int64) int64 {
	for _, b := range s.blocks {
		if b.End <= seq {
			continue
		}
		if b.Start > seq {
			return seq
		}
		seq = b.End
	}
	return seq
}

// DropBelow removes every sequence < seq from the set.
func (s *IntervalSet) DropBelow(seq int64) {
	i := 0
	for i < len(s.blocks) && s.blocks[i].End <= seq {
		i++
	}
	s.blocks = s.blocks[i:]
	if len(s.blocks) > 0 && s.blocks[0].Start < seq {
		s.blocks[0].Start = seq
	}
}

// Clear empties the set.
func (s *IntervalSet) Clear() { s.blocks = s.blocks[:0] }

// Blocks returns the underlying blocks (sorted, disjoint). The caller must
// not mutate the result.
func (s *IntervalSet) Blocks() []SackBlock { return s.blocks }

// Min returns the smallest sequence in the set; ok is false when empty.
func (s *IntervalSet) Min() (seq int64, ok bool) {
	if len(s.blocks) == 0 {
		return 0, false
	}
	return s.blocks[0].Start, true
}
