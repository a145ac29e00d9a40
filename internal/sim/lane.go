package sim

// Lane is a FIFO of occurrences of one callback whose times never
// decrease, owned by whoever produces them: a link's serialization
// completions, the arrivals at its far end, a TCP-PR sender's per-packet
// loss timers. Such a stream is already sorted, so the scheduler keeps one
// heap entry for the whole lane — the anchor, keyed by the lane's first
// waiting occurrence — instead of one per occurrence, and the heap holds a
// few dozen entries where it held every in-flight packet.
//
// Lane.At draws a sequence number exactly as Scheduler.AtFunc does, so an
// occurrence has the same (time, sequence) key either way, and the lane's
// ring is sorted by that key: times may not decrease (an occurrence earlier
// than the lane's last one falls back to a plain heap event inside At) and
// sequence numbers only grow. The heap orders anchors and plain events by
// key, an anchor's key is that of its lane's smallest occurrence, and so
// events fire in exactly the order, with the same Now, Processed and Len,
// as if every At had been an AtFunc (PERFORMANCE.md, "Lanes").
//
// The zero Lane is not usable; call Init first. A Lane is embedded by value
// in its owner and must not be copied after Init. It holds no storage until
// its first At: the ring comes from a per-scheduler pool, and Release hands
// it back once the owner has nothing more to schedule.
type Lane struct {
	s    *Scheduler
	fn   func(any)
	ring []laneItem // circular; length is a power of two, or zero
	head int        // ring index of the first waiting occurrence
	n    int        // occurrences from head on, cancelled ones included
	pos  uint64     // how many occurrences have left the ring; a LaneHandle names an occurrence by its position
	// anchor is the heap event standing for ring[head]. While the lane is
	// not empty it is queued, not cancelled, and carries the head's key; its
	// heap entry may carry an older one (heap key <= event key, as after
	// Timer.Reset) and is sunk by Scheduler.peek when it surfaces. Once the
	// lane is empty the pointer may be stale: the event is still this
	// lane's only while its lane field says so.
	anchor *Event
}

// LaneHandle identifies one occurrence scheduled with Lane.At; the lane
// that issued it cancels it. Like a Handle, the zero value refers to
// nothing and a handle outliving its occurrence is harmless: positions on a
// lane are never reused. It is a type of its own, and no wider than a
// Handle, because senders keep one per packet in flight.
type LaneHandle struct {
	e   *Event // the plain event of an out-of-order occurrence; nil for one on the ring
	gen uint64 // that event's generation, or the ring position plus one
}

// laneItem is one occurrence waiting on a lane.
type laneItem struct {
	at  Time
	seq uint64 // laneDead once cancelled
	arg any
}

// laneDead marks a cancelled occurrence. It stays in the ring, holding its
// position, until the head moves past it.
const laneDead = ^uint64(0)

// laneRingMin is the length of a lane's first ring: 256 bytes, enough for
// a sparse link or a short transfer's window without growing.
const laneRingMin = 8

// Init binds the lane to its scheduler and callback. It allocates nothing.
func (l *Lane) Init(s *Scheduler, fn func(any)) {
	if s == nil || fn == nil {
		panic("sim: Lane.Init requires a scheduler and a callback")
	}
	*l = Lane{s: s, fn: fn}
}

// At schedules fn(arg) to run at virtual time t, like Scheduler.AtFunc.
func (l *Lane) At(t Time, arg any) LaneHandle {
	s := l.s
	if l.n > 0 && t < l.ring[(l.head+l.n-1)&(len(l.ring)-1)].at {
		// Out of order for this lane (a jitter draw, a shortened delay, a
		// re-armed loss timer): an ordinary event, same key.
		s.laneFallbacks++
		h := s.schedule(t, nil, l.fn, arg)
		return LaneHandle{e: h.e, gen: h.gen}
	}
	s.checkFuture(t)
	if l.n == len(l.ring) {
		l.grow()
	}
	seq := s.seq
	s.seq++
	s.live++
	s.lanePushes++
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = laneItem{at: t, seq: seq, arg: arg}
	l.n++
	if l.n == 1 {
		l.arm(t, seq)
	}
	return LaneHandle{gen: l.pos + uint64(l.n)}
}

// arm gives a lane that just went from empty to one occurrence its anchor.
// A lane emptied by firing has none: the anchor left the heap with the last
// occurrence. A lane emptied by Cancel left its anchor queued and cancelled,
// keyed at the last head; it is revived in place when the new occurrence is
// not before that key (so not before the heap entry's either). Otherwise it
// is abandoned to be popped as any cancelled event, and a new anchor pushed:
// a sender's first window is armed seconds out, the next one three round
// trips out, and waiting behind the dead anchor would send every
// occurrence in between down the fallback path.
func (l *Lane) arm(t Time, seq uint64) {
	s := l.s
	if a := l.anchor; a != nil && a.lane == l && a.queued && t >= a.at {
		a.at, a.seq, a.canceled = t, seq, false
		return
	}
	e := s.alloc()
	e.at, e.seq, e.lane = t, seq, l
	l.anchor = e
	s.push(entry{at: t, seq: seq, e: e})
}

// grow moves the lane to a ring twice as long, head first.
func (l *Lane) grow() {
	s, old := l.s, l.ring
	ring := s.takeRing(max(2*len(old), laneRingMin))
	k := copy(ring, old[l.head:])
	copy(ring[k:], old[:l.head])
	l.ring, l.head = ring, 0
	if old != nil {
		clear(old)
		s.rings = append(s.rings, old)
	}
}

// Release hands the lane's ring back to the scheduler's pool when nothing
// waits on the lane; a lane with waiting occurrences keeps it. The lane
// stays usable — the next At takes a ring again — so an owner calls it when
// it expects to schedule nothing more: a finished transfer, a stopped
// sender.
func (l *Lane) Release() {
	if l.n == 0 && l.ring != nil {
		l.s.rings = append(l.s.rings, l.ring)
		l.ring, l.head = nil, 0
	}
}

// item returns the waiting occurrence at position pos, or nil when it has
// fired, was cancelled, or never existed.
func (l *Lane) item(pos uint64) *laneItem {
	i := pos - l.pos // wraps to a huge value for a position already gone
	if i >= uint64(l.n) {
		return nil
	}
	it := &l.ring[(l.head+int(i))&(len(l.ring)-1)]
	if it.seq == laneDead {
		return nil
	}
	return it
}

// Cancel prevents the occurrence h refers to from firing and reports
// whether it was still pending. A cancelled occurrence never reaches the
// heap: it holds its place in the ring until the head passes it. A
// cancelled head moves the anchor on at once — the anchor's event takes the
// next waiting occurrence's key while its heap entry keeps the older one.
func (l *Lane) Cancel(h LaneHandle) bool {
	if h.e != nil {
		return Handle{e: h.e, gen: h.gen}.Cancel()
	}
	pos := h.gen - 1
	it := l.item(pos)
	if it == nil {
		return false
	}
	it.seq, it.arg = laneDead, nil
	l.s.live--
	if pos == l.pos {
		l.dropHead()
		e := l.anchor
		if l.n > 0 {
			e.at, e.seq = l.ring[l.head].at, l.ring[l.head].seq
		} else {
			e.canceled = true
		}
	}
	return true
}

// dropHead removes the head occurrence and every cancelled one behind it,
// so that the head, if any is left, is waiting.
func (l *Lane) dropHead() {
	mask := len(l.ring) - 1
	for {
		l.head = (l.head + 1) & mask
		l.n--
		l.pos++
		if l.n == 0 || l.ring[l.head].seq != laneDead {
			return
		}
	}
}

// fireLane executes the head occurrence of the lane whose anchor e peek
// just returned. The anchor stays at the root under the next occurrence's
// key — one sift-down, no pop and push — or leaves the heap with the last.
func (s *Scheduler) fireLane(e *Event) {
	l := e.lane
	it := &l.ring[l.head]
	at, seq, arg := it.at, it.seq, it.arg
	it.arg = nil
	l.dropHead()
	if l.n > 0 {
		e.at, e.seq = l.ring[l.head].at, l.ring[l.head].seq
		s.siftDown(0, entry{at: e.at, seq: e.seq, e: e})
	} else {
		s.popTop()
		s.release(e)
	}
	s.live--
	s.now, s.fireSeq = at, seq
	s.processed++
	l.fn(arg)
}

// takeRing returns a ring of at least n items, none holding an argument,
// from the pool when the most recently returned one is long enough.
func (s *Scheduler) takeRing(n int) []laneItem {
	if k := len(s.rings) - 1; k >= 0 && len(s.rings[k]) >= n {
		r := s.rings[k]
		s.rings[k] = nil
		s.rings = s.rings[:k]
		return r
	}
	return make([]laneItem, n)
}
