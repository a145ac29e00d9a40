// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine is the substrate every other package builds on: network links,
// TCP senders, and experiment harnesses all schedule callbacks on a shared
// Scheduler and read virtual time from it. Determinism is guaranteed by a
// single-threaded run loop and a strict (time, insertion-sequence) event
// ordering, so two runs with the same seeds produce identical traces.
//
// The engine is also the simulator's hottest allocation site: a long run
// schedules tens of millions of events, and a fresh Event per callback
// would make the garbage collector the bottleneck (the same observation
// that drove ns-2 to a tuned C++ event core). Fired and cancelled events
// therefore return to a per-scheduler free list and are reused; the public
// API hands out generation-checked Handle values instead of raw event
// pointers, so a stale reference to a recycled event can never cancel its
// new occupant. The AtFunc/AfterFunc variants additionally avoid the
// per-call closure by taking a long-lived callback plus an argument, which
// makes steady-state scheduling fully allocation-free.
//
// The pending-event queue is a concrete 4-ary min-heap of inline
// {at, seq, *Event} entries: comparisons read the keys straight out of the
// slice, and a swap moves 24 bytes without touching the events. A heap key
// may lag behind its event's (at, seq) after Timer.Reset pushed the
// deadline out in place; the invariant is heap key <= event key, and an
// entry found stale at the top is sunk to its true position before
// anything fires, so execution order is exactly (at, seq) order (see
// PERFORMANCE.md, "Event queue").
//
// Event streams that are already sorted — a link's FIFO deliveries, a
// TCP-PR sender's loss timers — do not sit in the heap at all: a Lane keeps
// them in a ring and the heap holds one entry for the lane's head (lane.go).
package sim

import (
	"fmt"
	"math/bits"
	"os"
	"time"
)

// debugPoolEnv turns on pool-ownership checking for every new Scheduler
// when TCPPR_DEBUG_POOL is set in the environment; SetDebugPool overrides
// it per scheduler.
var debugPoolEnv = os.Getenv("TCPPR_DEBUG_POOL") != ""

// Time is a virtual timestamp measured from the start of the simulation.
// It reuses time.Duration so arithmetic with durations is natural and
// nanosecond-exact (no floating-point clock drift).
type Time = time.Duration

// Event is one pooled occurrence on the pending-event queue. Events are
// recycled after they fire or are discarded, so user code never holds an
// *Event directly — Scheduler.At and friends return a Handle instead.
type Event struct {
	at       Time
	seq      uint64
	gen      uint64
	sched    *Scheduler
	fn       func()
	fnArg    func(any)
	arg      any
	lane     *Lane // non-nil on a lane's anchor: firing runs the lane's head
	canceled bool
	pooled   bool // on the free list (debug-mode double-release check)
	queued   bool // a heap entry points at this event
}

// Handle identifies one scheduled occurrence of an event. The zero Handle
// is valid and refers to nothing: Cancel and Pending on it report false.
// A Handle outliving its event is harmless — once the event has fired (or
// its cancelled slot has been recycled) the generation check makes every
// method a no-op, so callers may keep handles around without clearing
// them.
type Handle struct {
	e   *Event
	gen uint64
}

// live reports whether the handle still refers to the occurrence it was
// created for. The generation is bumped at reuse, not at release, so a
// live handle may refer to an event that already fired; Pending tells.
func (h Handle) live() bool { return h.e != nil && h.e.gen == h.gen }

// At returns the virtual time the event is scheduled to fire, or zero for
// a handle that no longer refers to a pending event.
func (h Handle) At() Time {
	if !h.Pending() {
		return 0
	}
	return h.e.at
}

// Cancel prevents the event from firing. Cancelling an event that already
// fired (or was already cancelled) is a no-op. It reports whether the
// event was still pending.
func (h Handle) Cancel() bool {
	if !h.Pending() {
		return false
	}
	h.e.canceled = true
	h.e.sched.live--
	return true
}

// Pending reports whether the event is still scheduled to fire.
func (h Handle) Pending() bool {
	return h.live() && h.e.queued && !h.e.canceled
}

// entry is one heap slot. The ordering key is stored inline so that a
// comparison never dereferences the event; it equals the event's
// (at, seq) except after an in-place re-arm, when it is older (smaller).
type entry struct {
	at  Time
	seq uint64
	e   *Event
}

// less orders entries by (time, insertion sequence). The sequence tiebreak
// makes same-timestamp execution order equal to scheduling order, which
// keeps simulations deterministic.
func (a entry) less(b entry) bool { return a.lt(b) != 0 }

// lt is less as 0 or 1, computed without a branch: the borrow out of the
// 128-bit subtraction at:seq - at:seq (times are never negative, so the
// unsigned comparison is the signed one). Which of four children is the
// smallest is a coin toss to the branch predictor; siftDown turns these
// bits into an index instead of branching on them.
func (a entry) lt(b entry) int {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.at), uint64(b.at), borrow)
	return int(borrow)
}

// heapArity is the fan-out of the event heap. Four children per node
// halve the depth of a binary heap and keep a node's children within one
// or two cache lines of 24-byte entries. siftDown's child tournament is
// written out for exactly four.
const heapArity = 4

// initialHeapCap is the capacity of a new scheduler's heap: 6 KiB of
// 24-byte entries. It is sized as a byte budget because a build that
// creates many schedulers (one per cell or shard) pays for clearing it
// every time; a long run outgrows it within its first few appends.
const initialHeapCap = 256

// Scheduler owns the virtual clock and the pending-event queue.
// The zero value is not usable; create one with NewScheduler.
type Scheduler struct {
	now Time
	seq uint64
	// fireSeq is the sequence number of the event being fired: (now,
	// fireSeq) is its key. Once a run loop has fired everything at or before
	// now it is the next sequence number to be drawn instead, larger than
	// that of any occurrence scheduled so far (see Passed).
	fireSeq   uint64
	heap      []entry // 4-ary min-heap; heap[i].key <= heap[i].e.key
	free      []*Event
	rings     [][]laneItem // lane storage handed back by Lane.Release or outgrown
	live      int          // waiting occurrences, in the heap or on a lane, that are not cancelled
	processed uint64
	debugPool bool

	pushes        uint64
	pops          uint64
	cancelledPops uint64
	rearms        uint64
	staleSinks    uint64
	lanePushes    uint64
	laneFallbacks uint64
	maxHeapLen    int
}

// Stats are the scheduler's deterministic queue counters: for a given
// program of calls they are the same on every machine, so cost can be
// gated on them exactly where wall time is noise. Pushes, Pops and
// CancelledPops count heap entries; an occurrence that waited on a lane
// behind its anchor never was one and is counted by LanePushes instead.
type Stats struct {
	Pushes        uint64 `json:"pushes"`         // entries pushed onto the heap
	Pops          uint64 `json:"pops"`           // entries removed: fired plus cancelled
	CancelledPops uint64 `json:"cancelled_pops"` // entries removed because their event was cancelled
	Rearms        uint64 `json:"rearms"`         // Timer.Reset calls served in place, without a push
	StaleSinks    uint64 `json:"stale_sinks"`    // re-keyed entries sunk to their new key before firing
	LanePushes    uint64 `json:"lane_pushes"`    // Lane.At calls appended to the lane's ring
	LaneFallbacks uint64 `json:"lane_fallbacks"` // Lane.At calls out of order for the lane: plain heap events
	MaxHeapLen    int    `json:"max_heap_len"`   // largest heap length, cancelled entries included
}

// Add folds into t what one scheduler did since an earlier snapshot of its
// counters (the zero Stats for its whole life): counts sum, and MaxHeapLen
// is the largest seen, so a total over shards reports the deepest heap.
func (t *Stats) Add(st, since Stats) {
	t.Pushes += st.Pushes - since.Pushes
	t.Pops += st.Pops - since.Pops
	t.CancelledPops += st.CancelledPops - since.CancelledPops
	t.Rearms += st.Rearms - since.Rearms
	t.StaleSinks += st.StaleSinks - since.StaleSinks
	t.LanePushes += st.LanePushes - since.LanePushes
	t.LaneFallbacks += st.LaneFallbacks - since.LaneFallbacks
	t.MaxHeapLen = max(t.MaxHeapLen, st.MaxHeapLen)
}

// Stats returns the queue counters accumulated since NewScheduler.
func (s *Scheduler) Stats() Stats {
	return Stats{
		Pushes:        s.pushes,
		Pops:          s.pops,
		CancelledPops: s.cancelledPops,
		Rearms:        s.rearms,
		StaleSinks:    s.staleSinks,
		LanePushes:    s.lanePushes,
		LaneFallbacks: s.laneFallbacks,
		MaxHeapLen:    s.maxHeapLen,
	}
}

// NewScheduler returns a Scheduler with the clock at zero and no pending
// events.
func NewScheduler() *Scheduler {
	return &Scheduler{heap: make([]entry, 0, initialHeapCap), debugPool: debugPoolEnv}
}

// SetDebugPool enables (or disables) pool-ownership checking: releasing an
// event that is already on the free list panics instead of silently
// corrupting the pool. The check is a single branch on the release path, so
// leaving it on costs essentially nothing; it defaults to the value of the
// TCPPR_DEBUG_POOL environment variable.
func (s *Scheduler) SetDebugPool(on bool) { s.debugPool = on }

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Len returns the number of pending (non-cancelled) events, whether they
// wait in the heap or on a lane. Cancelled events are not counted.
func (s *Scheduler) Len() int { return s.live }

// Processed returns the number of events executed so far. It is useful for
// run-length accounting in benchmarks and runaway-simulation guards.
func (s *Scheduler) Processed() uint64 { return s.processed }

// RingPoolLen returns how many lane rings sit in the scheduler's pool,
// handed back by Lane.Release or outgrown. Like FreeListLen it exists for
// pool tests and capacity planning.
func (s *Scheduler) RingPoolLen() int { return len(s.rings) }

// NextAt reports the timestamp of the next pending event and whether one
// exists. It exists for diagnostics — a stall watchdog distinguishing "the
// queue drained" from "a shard is stuck waiting at a barrier" — and, like
// every Scheduler method, may only be called from the goroutine running
// the scheduler.
func (s *Scheduler) NextAt() (Time, bool) {
	if e := s.peek(); e != nil {
		return e.at, true
	}
	return 0, false
}

// Stamp draws the sequence number an event scheduled at this point of the
// program would get, without scheduling one. With a time it forms the key
// of an occurrence that never enters the queue: its owner asks Passed
// whether the occurrence would have fired yet, and does the work then.
func (s *Scheduler) Stamp() uint64 {
	seq := s.seq
	s.seq++
	return seq
}

// Passed reports whether an event with the key (at, seq) — seq drawn by
// Stamp — would have fired already: its key sorts before that of the event
// being fired or, between runs, before everything the last run left behind.
func (s *Scheduler) Passed(at Time, seq uint64) bool {
	return at < s.now || (at == s.now && seq < s.fireSeq)
}

// drained moves the clock to t, at which a run loop stopped because no
// event at or before t is left; a t the clock is already past changes
// nothing. Every key drawn so far that is not after t has passed.
func (s *Scheduler) drained(t Time) {
	if t >= s.now {
		s.now, s.fireSeq = t, s.seq
	}
}

// checkFuture panics when t lies in the past: that is always a logic error
// in a discrete-event model, and silently reordering the past would
// destroy determinism.
func (s *Scheduler) checkFuture(t Time) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
}

// alloc takes an event off the free list (or allocates one) and marks it
// queued. Bumping the generation here invalidates every handle to the
// event's previous occupancy.
func (s *Scheduler) alloc() *Event {
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = &Event{sched: s}
	}
	e.gen++
	e.pooled = false
	e.canceled = false
	e.queued = true
	return e
}

// schedule fills a pooled event and pushes it onto the heap.
func (s *Scheduler) schedule(t Time, fn func(), fnArg func(any), arg any) Handle {
	s.checkFuture(t)
	e := s.alloc()
	e.at = t
	e.seq = s.seq
	e.fn = fn
	e.fnArg = fnArg
	e.arg = arg
	s.seq++
	s.live++
	s.push(entry{at: t, seq: e.seq, e: e})
	return Handle{e: e, gen: e.gen}
}

// rearm moves the occurrence h refers to to time t without touching the
// heap, and reports whether it could. It can while the occurrence's entry
// is still queued (pending, or cancelled and not yet popped) and t is not
// before the occurrence's current time, hence not before its entry's key:
// the event takes (t, fresh seq) — exactly what cancel-and-schedule would
// have given its replacement — and the entry keeps its older key until
// peek finds it at the top and sinks it.
func (s *Scheduler) rearm(h Handle, t Time) bool {
	e := h.e
	if !h.live() || !e.queued || t < e.at {
		return false
	}
	s.checkFuture(t)
	e.at = t
	e.seq = s.seq
	s.seq++
	if e.canceled {
		e.canceled = false
		s.live++
	}
	s.rearms++
	return true
}

// release returns a popped event to the free list, dropping callback and
// argument references so the pool does not pin dead objects.
func (s *Scheduler) release(e *Event) {
	if s.debugPool && e.pooled {
		panic(fmt.Sprintf("sim: double release of event (at=%v seq=%d gen=%d)", e.at, e.seq, e.gen))
	}
	e.pooled = true
	e.fn = nil
	e.fnArg = nil
	e.arg = nil
	e.lane = nil
	s.free = append(s.free, e)
}

// At schedules fn to run at virtual time t. Scheduling in the past
// (t < Now) panics: it is always a logic error in a discrete-event model
// and silently reordering the past would destroy determinism.
func (s *Scheduler) At(t Time, fn func()) Handle {
	return s.schedule(t, fn, nil, nil)
}

// After schedules fn to run d after the current virtual time.
func (s *Scheduler) After(d time.Duration, fn func()) Handle {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// AtFunc schedules fn(arg) to run at virtual time t. Unlike At, which
// usually forces the caller to allocate a fresh closure per call, AtFunc
// takes a long-lived callback (typically created once per object) plus the
// state it needs, so hot paths — link delivery, per-segment loss timers —
// schedule without allocating. Passing a pointer as arg does not allocate;
// passing a non-pointer value boxes it.
func (s *Scheduler) AtFunc(t Time, fn func(any), arg any) Handle {
	return s.schedule(t, nil, fn, arg)
}

// AfterFunc schedules fn(arg) to run d after the current virtual time.
func (s *Scheduler) AfterFunc(d time.Duration, fn func(any), arg any) Handle {
	if d < 0 {
		d = 0
	}
	return s.AtFunc(s.now+d, fn, arg)
}

// Step executes the next pending event, advancing the clock to its
// timestamp. It reports whether an event was executed (false means the
// queue is empty).
func (s *Scheduler) Step() bool {
	e := s.peek()
	if e == nil {
		return false
	}
	s.fire(e)
	return true
}

// fire executes e, which must be the event peek just returned.
func (s *Scheduler) fire(e *Event) {
	if e.lane != nil {
		s.fireLane(e)
		return
	}
	s.popTop()
	s.live--
	s.now, s.fireSeq = e.at, e.seq
	s.processed++
	fn, fnArg, arg := e.fn, e.fnArg, e.arg
	// Recycle before running the callback: the event is logically
	// finished, and the callback's own scheduling can then reuse the
	// slot immediately — the common self-rearming pattern becomes a
	// single-event round trip.
	s.release(e)
	if fnArg != nil {
		fnArg(arg)
	} else {
		fn()
	}
}

// Run executes events until the queue is empty.
func (s *Scheduler) Run() {
	for s.Step() {
	}
	s.drained(s.now)
}

// RunUntil executes events with timestamps <= t and then advances the clock
// to exactly t. Events scheduled after t remain pending.
func (s *Scheduler) RunUntil(t Time) {
	for {
		e := s.peek()
		if e == nil || e.at > t {
			break
		}
		s.fire(e)
	}
	s.drained(t)
}

// peek returns the next event to fire without executing it, leaving its
// entry at the root of the heap. On the way it discards cancelled entries
// and sinks re-armed ones: a root whose key is older than its event's
// (at, seq) moves down to that key, so the entry peek finally returns has
// the smallest event key in the queue (every other entry's event key is
// at least its heap key, which is at least the root's).
func (s *Scheduler) peek() *Event {
	for len(s.heap) > 0 {
		top := s.heap[0]
		e := top.e
		switch {
		case e.canceled:
			s.popTop()
			s.cancelledPops++
			s.release(e)
		case top.seq != e.seq:
			s.staleSinks++
			s.siftDown(0, entry{at: e.at, seq: e.seq, e: e})
		default:
			return e
		}
	}
	return nil
}

// push adds x to the heap. x carries the largest sequence number drawn so
// far, so it sorts before its parent only on a strictly smaller time.
func (s *Scheduler) push(x entry) {
	s.pushes++
	s.heap = append(s.heap, x)
	h := s.heap
	if len(h) > s.maxHeapLen {
		s.maxHeapLen = len(h)
	}
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if x.at >= h[p].at {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

// popTop removes the root entry.
func (s *Scheduler) popTop() {
	s.pops++
	h := s.heap
	n := len(h) - 1
	h[0].e.queued = false
	last := h[n]
	h[n] = entry{}
	s.heap = h[:n]
	if n > 0 {
		s.siftDown(0, last)
	}
}

// siftDown places x at or below the hole at index i, moving smaller
// children up into the hole as it descends.
func (s *Scheduler) siftDown(i int, x entry) {
	h := s.heap
	n := len(h)
	for {
		c := heapArity*i + 1
		if c >= n {
			break
		}
		m := c
		if c+heapArity <= n {
			// Full node: a two-round tournament, index arithmetic only
			// (the &3 masks spare the bounds checks on k).
			k := h[c : c+heapArity : c+heapArity]
			a := k[1].lt(k[0])
			b := 2 + k[3].lt(k[2])
			m = c + a + (b-a)*k[b&3].lt(k[a&3])
		} else {
			for j := c + 1; j < n; j++ {
				if h[j].less(h[m]) {
					m = j
				}
			}
		}
		if !h[m].less(x) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = x
}
