package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// The reference model of the event queue: a slice kept in scheduling
// order and stable-sorted by time on every step, where cancel is delete,
// a timer reset is cancel plus append, and a lane is nothing at all —
// Lane.At is one more append. Stamp draws a sequence number and appends
// nothing, and a key has passed once a greater one has been executed or a
// run loop has left nothing at its time. It is what the scheduler's documentation
// promises and nothing more, so any divergence of the real queue (4-ary
// heap, lazy cancellation, in-place re-arm with stale keys, pooled events
// behind generation-checked handles, lanes behind one anchor each) is a
// bug in the queue.

type modelEvent struct {
	at         Time
	seq        uint64
	id         int
	childDelay int // >= 0: the callback schedules event -id that much later
	cancelSlot int // >= 0: the callback cancels whatever that handle slot holds
}

type model struct {
	now       Time
	seq       uint64
	processed uint64
	q         []modelEvent
	fired     []int
	masks     []int // which marks had passed, as seen from each fired event

	// The key of the last event executed (they execute in key order, so it
	// is the greatest), and what the last run loop to finish left behind:
	// nothing at or before drainedAt among the keys drawn by then.
	last       modelEvent
	executed   bool
	drainedAt  Time
	drainedSeq uint64
	drainedAny bool
}

// passed is the model's Scheduler.Passed for a key whose time was not in
// the past when its sequence number was drawn.
func (m *model) passed(at Time, seq uint64) bool {
	if m.executed && (at < m.last.at || (at == m.last.at && seq < m.last.seq)) {
		return true
	}
	return m.drainedAny && at <= m.drainedAt && seq < m.drainedSeq
}

// drain is the model's side of a run loop that stopped at t with nothing
// at or before t left to execute.
func (m *model) drain(t Time) {
	if m.now < t {
		m.now = t
	}
	m.drainedAt, m.drainedSeq, m.drainedAny = t, m.seq, true
}

func (m *model) schedule(ev modelEvent) {
	ev.seq = m.seq
	m.seq++
	m.q = append(m.q, ev)
}

func (m *model) find(id int) int {
	for i, ev := range m.q {
		if ev.id == id {
			return i
		}
	}
	return -1
}

func (m *model) cancel(id int) bool {
	i := m.find(id)
	if i < 0 {
		return false
	}
	m.q = append(m.q[:i], m.q[i+1:]...)
	return true
}

func (m *model) at(id int) Time {
	if i := m.find(id); i >= 0 {
		return m.q[i].at
	}
	return 0
}

// next returns the index of the event to fire: smallest time, earliest
// scheduled among equals.
func (m *model) next() int {
	if len(m.q) == 0 {
		return -1
	}
	order := make([]int, len(m.q))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ea, eb := m.q[order[a]], m.q[order[b]]
		if ea.at != eb.at {
			return ea.at < eb.at
		}
		return ea.seq < eb.seq
	})
	return order[0]
}

const (
	fuzzSlots  = 16 // handle slots
	fuzzTimers = 3
	fuzzLanes  = 2
	fuzzMarks  = 4       // keys drawn with Stamp
	timerID0   = 1 << 30 // timers fire as timerID0+k
)

// Opcodes of the fuzz program; each op is two bytes, {slot<<4 | opcode, arg}.
const (
	opAt          = iota // At(now+arg&15); arg>>4: 1..7 child after that-1, 8..15 cancel slot
	opAtFunc             // AtFunc(now+arg&15)
	opCancel             // Handle.Cancel on a slot (possibly stale or zero)
	opReset              // Timer.Reset(now+arg&15)
	opResetNear          // Timer.Reset(last deadline + (arg&7) - 3), clamped to now
	opStop               // Timer.Stop
	opSelfReset          // the timer's next firing calls Reset(now+arg&15) from its callback
	opStep               // Step
	opRunUntil           // RunUntil(now+arg&31)
	opLaneAt             // Lane.At(max(now, lane's last time)+arg&3): in order; arg>>4 as for opAt, the child on the same lane
	opLaneAtAny          // Lane.At(now+arg&15): in order or not; arg>>4 likewise
	opLaneRelease        // Lane.Release
	opStamp              // mark[slot] = (now+arg&3, Stamp()); Passed is asked of every mark after every op and from every callback
	opCount
)

func op(code, slot, arg int) []byte { return []byte{byte(slot<<4 | code), byte(arg)} }

func prog(ops ...[]byte) []byte {
	var out []byte
	for _, o := range ops {
		out = append(out, o...)
	}
	return out
}

// fuzzSlot holds the handle of the occurrence most recently scheduled
// through it: a Handle, or a LaneHandle and the lane that issued it.
type fuzzSlot struct {
	h    Handle
	lh   LaneHandle
	lane *Lane
	id   int
}

func (sl fuzzSlot) cancel() bool {
	if sl.lane != nil {
		return sl.lane.Cancel(sl.lh)
	}
	return sl.h.Cancel()
}

func (sl fuzzSlot) pending() bool {
	if sl.lane != nil {
		return sl.lane.Pending(sl.lh)
	}
	return sl.h.Pending()
}

// mark is a key drawn with Stamp: the time asked for and the sequence
// number the scheduler and the model both handed out.
type mark struct {
	at  Time
	seq uint64
	set bool
}

// laneArg is the argument of one lane occurrence.
type laneArg struct{ id, lane, child, cancel int }

// harness drives one Scheduler and one model through the same program.
type harness struct {
	t      *testing.T
	s      *Scheduler
	m      model
	fired  []int
	masks  []int // real side of model.masks
	marks  [fuzzMarks]mark
	slots  [fuzzSlots]fuzzSlot
	timers [fuzzTimers]*Timer
	last   [fuzzTimers]Time // deadline most recently asked of each timer
	self   [fuzzTimers]int  // real side: pending self-reset delay, -1 none
	mself  [fuzzTimers]int  // model side of the same
	nextID int

	lanes    [fuzzLanes]Lane
	laneLast [fuzzLanes]Time // largest time asked of each lane
	laneAts  uint64          // Lane.At calls made
	// plain replaces every Lane.At by AtFunc with the lane's callback: the
	// program a lane must be indistinguishable from.
	plain bool
}

func newHarness(t *testing.T, plain bool) *harness {
	h := &harness{t: t, s: NewScheduler(), nextID: 1, plain: plain}
	h.s.SetDebugPool(true)
	for k := range h.lanes {
		h.lanes[k].Init(h.s, h.laneFire)
	}
	for k := range h.timers {
		k := k
		h.self[k], h.mself[k] = -1, -1
		h.timers[k] = NewTimer(h.s, func() {
			h.fire(timerID0 + k)
			if d := h.self[k]; d >= 0 {
				h.self[k] = -1
				h.timers[k].Reset(h.s.Now() + Time(d))
			}
		})
	}
	return h
}

// fire is the head of every callback on the real side: it records the
// event and which marks the scheduler says have passed, seen from inside it.
func (h *harness) fire(id int) {
	h.fired = append(h.fired, id)
	h.masks = append(h.masks, h.passedMask(h.s.Passed))
}

// passedMask asks passed of every mark.
func (h *harness) passedMask(passed func(Time, uint64) bool) int {
	mask := 0
	for i, mk := range h.marks {
		if mk.set && passed(mk.at, mk.seq) {
			mask |= 1 << i
		}
	}
	return mask
}

// laneAt schedules one occurrence on lane k, or its plain equivalent.
func (h *harness) laneAt(k int, at Time, a *laneArg) fuzzSlot {
	if at > h.laneLast[k] {
		h.laneLast[k] = at
	}
	if h.plain {
		return fuzzSlot{id: a.id, h: h.s.AtFunc(at, h.laneFire, a)}
	}
	h.laneAts++
	return fuzzSlot{id: a.id, lane: &h.lanes[k], lh: h.lanes[k].At(at, a)}
}

// laneFire is every lane's callback.
func (h *harness) laneFire(arg any) {
	a := arg.(*laneArg)
	h.fire(a.id)
	if a.child >= 0 {
		h.laneAt(a.lane, h.s.Now()+Time(a.child), &laneArg{id: -a.id, lane: a.lane, child: -1, cancel: -1})
	}
	if a.cancel >= 0 {
		h.slots[a.cancel].cancel()
	}
}

func (h *harness) modelReset(k int, at Time) {
	h.m.cancel(timerID0 + k)
	h.m.schedule(modelEvent{at: at, id: timerID0 + k, childDelay: -1, cancelSlot: -1})
}

func (h *harness) modelStep() {
	i := h.m.next()
	ev := h.m.q[i]
	h.m.q = append(h.m.q[:i], h.m.q[i+1:]...)
	h.m.now = ev.at
	h.m.processed++
	h.m.last, h.m.executed = ev, true
	h.m.fired = append(h.m.fired, ev.id)
	h.m.masks = append(h.m.masks, h.passedMask(h.m.passed))
	if ev.id >= timerID0 {
		k := ev.id - timerID0
		if d := h.mself[k]; d >= 0 {
			h.mself[k] = -1
			h.modelReset(k, h.m.now+Time(d))
		}
		return
	}
	if ev.childDelay >= 0 {
		h.m.schedule(modelEvent{at: h.m.now + Time(ev.childDelay), id: -ev.id, childDelay: -1, cancelSlot: -1})
	}
	if ev.cancelSlot >= 0 {
		h.m.cancel(h.slots[ev.cancelSlot].id)
	}
}

func (h *harness) exec(code, slot, arg int) {
	s, m := h.s, &h.m
	k := slot % fuzzTimers
	slot %= fuzzSlots
	child, cancel := -1, -1
	switch v := arg >> 4; {
	case v >= 8:
		cancel = (v - 8) % fuzzSlots
	case v >= 1:
		child = v - 1
	}
	switch code {
	case opLaneAt, opLaneAtAny:
		ln := slot % fuzzLanes
		id := h.nextID
		h.nextID++
		at := s.Now() + Time(arg&15)
		if code == opLaneAt {
			at = max(s.Now(), h.laneLast[ln]) + Time(arg&3)
		}
		h.slots[slot] = h.laneAt(ln, at, &laneArg{id: id, lane: ln, child: child, cancel: cancel})
		m.schedule(modelEvent{at: at, id: id, childDelay: child, cancelSlot: cancel})
	case opLaneRelease:
		h.lanes[slot%fuzzLanes].Release()
	case opStamp:
		mk := mark{at: s.Now() + Time(arg&3), seq: s.Stamp(), set: true}
		if mk.seq != m.seq {
			h.t.Fatalf("Stamp() = %d, model %d", mk.seq, m.seq)
		}
		m.seq++
		h.marks[slot%fuzzMarks] = mk
	case opAt:
		id := h.nextID
		h.nextID++
		at := s.Now() + Time(arg&15)
		h.slots[slot] = fuzzSlot{id: id, h: s.At(at, func() {
			h.fire(id)
			if child >= 0 {
				s.At(s.Now()+Time(child), func() { h.fire(-id) })
			}
			if cancel >= 0 {
				h.slots[cancel].cancel()
			}
		})}
		m.schedule(modelEvent{at: at, id: id, childDelay: child, cancelSlot: cancel})
	case opAtFunc:
		id := h.nextID
		h.nextID++
		at := s.Now() + Time(arg&15)
		h.slots[slot] = fuzzSlot{id: id, h: s.AtFunc(at, func(a any) {
			h.fire(*a.(*int))
		}, &id)}
		m.schedule(modelEvent{at: at, id: id, childDelay: -1, cancelSlot: -1})
	case opCancel:
		got, want := h.slots[slot].cancel(), m.cancel(h.slots[slot].id)
		if got != want {
			h.t.Fatalf("Cancel(slot %d) = %v, model %v", slot, got, want)
		}
	case opReset, opResetNear:
		at := s.Now() + Time(arg&15)
		if code == opResetNear {
			if at = h.last[k] + Time(arg&7) - 3; at < s.Now() {
				at = s.Now()
			}
		}
		h.last[k] = at
		h.timers[k].Reset(at)
		h.modelReset(k, at)
	case opStop:
		got, want := h.timers[k].Stop(), m.cancel(timerID0+k)
		if got != want {
			h.t.Fatalf("Stop(timer %d) = %v, model %v", k, got, want)
		}
	case opSelfReset:
		h.self[k], h.mself[k] = arg&15, arg&15
	case opStep:
		got, want := s.Step(), len(m.q) > 0
		if want {
			h.modelStep()
		}
		if got != want {
			h.t.Fatalf("Step() = %v, model %v", got, want)
		}
	case opRunUntil:
		until := s.Now() + Time(arg&31)
		s.RunUntil(until)
		for {
			i := m.next()
			if i < 0 || m.q[i].at > until {
				break
			}
			h.modelStep()
		}
		m.drain(until)
	}
}

// check compares every observable of the scheduler with the model and then
// audits the heap's internal invariants.
func (h *harness) check(step int) {
	t, s, m := h.t, h.s, &h.m
	t.Helper()
	if len(h.fired) != len(m.fired) {
		t.Fatalf("op %d: fired %v, model %v", step, h.fired, m.fired)
	}
	for i := range h.fired {
		if h.fired[i] != m.fired[i] {
			t.Fatalf("op %d: fire order %v, model %v", step, h.fired, m.fired)
		}
		if h.masks[i] != m.masks[i] {
			t.Fatalf("op %d: inside event %d (the %dth fired) marks %04b had passed, model %04b; marks %+v",
				step, h.fired[i], i, h.masks[i], m.masks[i], h.marks)
		}
	}
	if got, want := h.passedMask(s.Passed), h.passedMask(m.passed); got != want {
		t.Fatalf("op %d: between events marks %04b have passed, model %04b; marks %+v", step, got, want, h.marks)
	}
	if s.Now() != m.now || s.Processed() != m.processed || s.Len() != len(m.q) {
		t.Fatalf("op %d: now=%v processed=%d len=%d, model now=%v processed=%d len=%d",
			step, s.Now(), s.Processed(), s.Len(), m.now, m.processed, len(m.q))
	}
	for i, sl := range h.slots {
		if got, want := sl.pending(), m.find(sl.id) >= 0; got != want {
			t.Fatalf("op %d: slot %d Pending() = %v, model %v", step, i, got, want)
		}
		if got, want := sl.h.At(), m.at(sl.id); sl.lane == nil && got != want {
			t.Fatalf("op %d: slot %d At() = %v, model %v", step, i, got, want)
		}
	}
	for k, tm := range h.timers {
		if got, want := tm.Pending(), m.find(timerID0+k) >= 0; got != want {
			t.Fatalf("op %d: timer %d Pending() = %v, model %v", step, k, got, want)
		}
		if got, want := tm.At(), m.at(timerID0+k); got != want {
			t.Fatalf("op %d: timer %d At() = %v, model %v", step, k, got, want)
		}
	}
	if next, ok := s.NextAt(); ok != (len(m.q) > 0) || (ok && next != m.q[m.next()].at) {
		t.Fatalf("op %d: NextAt() = %v, %v; model queue %v", step, next, ok, m.q)
	}

	live := 0
	anchors := map[*Lane]int{} // queued, not cancelled anchors per lane
	for i, en := range s.heap {
		e := en.e
		if i > 0 && en.less(s.heap[(i-1)/heapArity]) {
			t.Fatalf("op %d: heap order broken at index %d", step, i)
		}
		if !e.queued || e.pooled || e.sched != s {
			t.Fatalf("op %d: heap[%d] event flags queued=%v pooled=%v", step, i, e.queued, e.pooled)
		}
		if (entry{at: e.at, seq: e.seq}).less(en) {
			t.Fatalf("op %d: heap[%d] key (%v, %d) is after its event's (%v, %d)",
				step, i, en.at, en.seq, e.at, e.seq)
		}
		switch {
		case e.canceled:
		case e.lane != nil:
			anchors[e.lane]++
		default:
			live++
		}
	}
	for k := range h.lanes {
		live += h.auditLane(step, k, anchors[&h.lanes[k]])
	}
	if live != s.Len() {
		t.Fatalf("op %d: Len() = %d, heap and lanes hold %d live events", step, s.Len(), live)
	}
	st := s.Stats()
	if st.Pushes-st.Pops != uint64(len(s.heap)) || st.MaxHeapLen < len(s.heap) ||
		st.LanePushes+st.LaneFallbacks != h.laneAts {
		t.Fatalf("op %d: inconsistent stats %+v (heap %d, %d Lane.At calls)", step, st, len(s.heap), h.laneAts)
	}
}

// auditLane checks lane k's invariants — the ring sorted by (time,
// sequence), a waiting head, exactly one live anchor carrying the head's
// key while anything waits and none otherwise — and returns how many
// occurrences wait on it.
func (h *harness) auditLane(step, k, anchors int) int {
	t, l := h.t, &h.lanes[k]
	t.Helper()
	if len(l.ring)&(len(l.ring)-1) != 0 || l.n > len(l.ring) {
		t.Fatalf("op %d: lane %d holds %d items in a ring of %d", step, k, l.n, len(l.ring))
	}
	if l.n == 0 {
		if anchors != 0 {
			t.Fatalf("op %d: empty lane %d has %d live anchors", step, k, anchors)
		}
		return 0
	}
	head := l.ring[l.head]
	a := l.anchor
	if anchors != 1 || a == nil || !a.queued || a.canceled || a.lane != l ||
		a.at != head.at || a.seq != head.seq || head.seq == laneDead {
		t.Fatalf("op %d: lane %d head (%v, %d), %d live anchors, anchor %+v", step, k, head.at, head.seq, anchors, a)
	}
	waiting := 0
	prev := laneItem{}
	for i := 0; i < l.n; i++ {
		it := l.ring[(l.head+i)&(len(l.ring)-1)]
		if it.at < prev.at || (it.seq != laneDead && it.seq <= prev.seq && i > 0) {
			t.Fatalf("op %d: lane %d item %d (%v, %d) is before (%v, %d)", step, k, i, it.at, it.seq, prev.at, prev.seq)
		}
		prev.at = it.at
		if it.seq != laneDead {
			prev.seq = it.seq
			waiting++
		}
	}
	return waiting
}

// runProgram runs one program twice, through lanes and with every Lane.At
// replaced by AtFunc, each against the model after every operation; the
// two runs therefore agree with each other on fire order, Now, Processed,
// Len and every handle's answers at every step.
func runProgram(t *testing.T, program []byte) {
	if len(program) > 4096 {
		program = program[:4096]
	}
	for _, plain := range []bool{false, true} {
		h := newHarness(t, plain)
		for i := 0; i+1 < len(program); i += 2 {
			h.exec(int(program[i]&15)%opCount, int(program[i]>>4), int(program[i+1]))
			h.check(i / 2)
		}
		// Drain: everything still queued must come out in model order too.
		h.s.Run()
		for len(h.m.q) > 0 {
			h.modelStep()
		}
		h.m.drain(h.m.now)
		h.check(len(program) / 2)
		if len(h.s.heap) != 0 {
			t.Fatalf("heap holds %d entries after Run", len(h.s.heap))
		}
	}
}

// FuzzSchedulerOrder runs random programs of At / AtFunc / Cancel /
// Timer.Reset (later, earlier, equal, from inside its own callback) /
// Timer.Stop / Lane.At (in order, out of order, from inside the lane's own
// callback) / Cancel of lane occurrences (head, middle, tail) /
// Lane.Release / Stamp / Step / RunUntil against the reference model and
// requires identical fire order and identical answers from every accessor —
// Passed of every stamped key included, asked between events and from
// inside every callback — after every operation, with pool-ownership
// checking armed.
func FuzzSchedulerOrder(f *testing.F) {
	// Revive after Stop: the cancelled entry is still queued when Reset
	// comes, is re-armed in place and must fire once, at the new time.
	f.Add(prog(op(opReset, 0, 5), op(opStop, 0, 0), op(opReset, 0, 9), op(opAt, 0, 7),
		op(opRunUntil, 0, 6), op(opStop, 0, 0), op(opResetNear, 0, 3), op(opRunUntil, 0, 20)))
	// Reset earlier than the queued deadline: falls back to cancel + push
	// and leaves a cancelled entry behind.
	f.Add(prog(op(opReset, 0, 9), op(opAt, 0, 4), op(opReset, 0, 2), op(opStep, 0, 0),
		op(opStep, 0, 0), op(opStep, 0, 0), op(opStep, 0, 0)))
	// Pushed out in place, then pulled back to between the stale key and
	// the deadline: a fallback that leaves a cancelled *stale* entry.
	f.Add(prog(op(opReset, 1, 3), op(opReset, 1, 12), op(opReset, 1, 6), op(opAt, 0, 6),
		op(opAt, 1, 3), op(opRunUntil, 0, 31)))
	// Same-timestamp ties: a timer re-armed to t before and after plain
	// events are scheduled at t fires in the order of the Reset calls.
	f.Add(prog(op(opReset, 0, 2), op(opAt, 0, 8), op(opReset, 0, 8), op(opAt, 1, 8),
		op(opReset, 1, 8), op(opAtFunc, 2, 8), op(opResetNear, 0, 3), op(opRunUntil, 0, 8)))
	// Stale handle to a recycled slot: slot 0's event fires, its *Event is
	// reused by slot 1's, and cancelling through slot 0 must do nothing.
	f.Add(prog(op(opAt, 0, 1), op(opStep, 0, 0), op(opAtFunc, 1, 3), op(opCancel, 0, 0),
		op(opStep, 0, 0), op(opCancel, 1, 0)))
	// Reset from inside the timer's own callback, and a callback that
	// cancels another slot and schedules a child.
	f.Add(prog(op(opSelfReset, 2, 4), op(opReset, 2, 1), op(opAt, 3, 1|9<<4), op(opAt, 1, 2|3<<4),
		op(opRunUntil, 0, 3), op(opSelfReset, 2, 0), op(opRunUntil, 0, 31)))

	// The dead-anchor trap: a lane's first window is armed far out and
	// cancelled whole, leaving the anchor queued and dead at the far key;
	// the next occurrence is near and needs a fresh anchor, not a fallback.
	f.Add(prog(op(opLaneAtAny, 0, 15), op(opLaneAt, 2, 0), op(opLaneAt, 4, 1), op(opLaneAt, 6, 0),
		op(opLaneAt, 8, 0), op(opLaneAt, 10, 1), op(opLaneAt, 12, 0), op(opLaneAt, 14, 0),
		op(opCancel, 0, 0), op(opCancel, 2, 0), op(opCancel, 4, 0), op(opCancel, 6, 0),
		op(opCancel, 8, 0), op(opCancel, 10, 0), op(opCancel, 12, 0), op(opCancel, 14, 0),
		op(opLaneAtAny, 0, 1), op(opLaneAtAny, 2, 2), op(opRunUntil, 0, 31)))
	// Cancel of head, middle and tail; the head's successor is then armed
	// out of order (before the cancelled tail, which still holds the ring's
	// last time) and fires between its neighbours all the same.
	f.Add(prog(op(opLaneAtAny, 0, 4), op(opLaneAt, 2, 1), op(opLaneAt, 4, 1), op(opLaneAt, 6, 1),
		op(opLaneAt, 8, 1), op(opCancel, 4, 0), op(opCancel, 0, 0), op(opCancel, 8, 0),
		op(opLaneAtAny, 10, 6), op(opLaneRelease, 0, 0), op(opRunUntil, 0, 31)))
	// A lane, a timer and plain events sharing one timestamp fire in
	// scheduling order; the lane's callback appends to its own lane at the
	// same instant and cancels a slot.
	f.Add(prog(op(opLaneAtAny, 0, 5|1<<4), op(opReset, 0, 5), op(opAt, 1, 5), op(opLaneAtAny, 2, 5|9<<4),
		op(opReset, 1, 5), op(opLaneAtAny, 1, 5), op(opAtFunc, 3, 5), op(opRunUntil, 0, 5),
		op(opLaneRelease, 0, 0), op(opLaneAt, 0, 2), op(opRunUntil, 0, 31)))
	// The anchor is revived in place after a cancel-drain (next occurrence
	// not before the dead key), and a drained lane hands its ring back.
	f.Add(prog(op(opLaneAtAny, 0, 3), op(opCancel, 0, 0), op(opLaneRelease, 0, 0), op(opLaneAtAny, 0, 7),
		op(opAt, 1, 5), op(opStep, 0, 0), op(opStep, 0, 0), op(opCancel, 0, 0), op(opStep, 0, 0)))

	// Stamped keys at one timestamp, drawn before, between and after the
	// events that share it; a timer re-armed in place fires under its fresh
	// sequence number, so the key stamped before the Reset has passed inside
	// it and the one stamped after has not; Step stops mid-timestamp and
	// RunUntil then drains it.
	f.Add(prog(op(opStamp, 0, 2), op(opAt, 0, 2), op(opStamp, 1, 2), op(opReset, 0, 1), op(opReset, 0, 2),
		op(opStamp, 2, 2), op(opLaneAt, 1, 2), op(opStamp, 3, 2), op(opStep, 0, 0), op(opStep, 0, 0),
		op(opStamp, 0, 0), op(opAtFunc, 2, 0), op(opStep, 0, 0), op(opRunUntil, 0, 0), op(opStamp, 1, 0),
		op(opAt, 3, 0), op(opRunUntil, 0, 3)))

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 32; i++ {
		p := make([]byte, 600)
		rng.Read(p)
		f.Add(p)
	}
	f.Fuzz(runProgram)
}
