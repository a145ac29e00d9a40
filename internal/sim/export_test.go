package sim

// FreeListLen returns the current size of the event free list (recycled
// events awaiting reuse). It exists for pool tests and capacity planning.
func (s *Scheduler) FreeListLen() int { return len(s.free) }

// Pending reports whether the occurrence h refers to is still scheduled to
// fire.
func (l *Lane) Pending(h LaneHandle) bool {
	if h.e != nil {
		return Handle{e: h.e, gen: h.gen}.Pending()
	}
	return l.item(h.gen-1) != nil
}
