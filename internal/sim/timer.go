package sim

import "time"

// Timer is a reusable one-shot timer: one callback, armed and re-armed
// many times over the life of its owner. A Timer exists for the
// simulator's steady-state timer traffic — retransmission timers,
// delayed-ACK timers, sampler ticks — where the callback never changes but
// the deadline moves constantly. Construction allocates once (the Timer
// and the bound callback); every Reset after that reuses a pooled event
// and a package-level trampoline, so re-arming is allocation-free.
//
// A Timer is single-owner and not safe for concurrent use, like everything
// else on a Scheduler.
type Timer struct {
	sched *Scheduler
	fn    func()
	h     Handle
}

// NewTimer returns an unarmed timer that will run fn each time it fires.
func NewTimer(sched *Scheduler, fn func()) *Timer {
	if sched == nil || fn == nil {
		panic("sim: NewTimer requires a scheduler and a callback")
	}
	return &Timer{sched: sched, fn: fn}
}

// timerFire is the shared trampoline between the event queue and a Timer's
// callback. Keeping it at package level means arming a timer never
// allocates a closure.
func timerFire(arg any) { arg.(*Timer).fn() }

// Reset (re)arms the timer to fire at virtual time t, replacing any
// pending occurrence. While the previous occurrence's queue entry is still
// around and t is not before that entry's key — the RTO pattern, a
// deadline pushed out on every ACK — the occurrence is moved in place (see
// Scheduler.rearm); otherwise it is cancelled and a new one scheduled.
// Both routes fire the callback at the same point of the event order.
func (t *Timer) Reset(at Time) {
	if t.sched.rearm(t.h, at) {
		return
	}
	t.h.Cancel()
	t.h = t.sched.AtFunc(at, timerFire, t)
}

// ResetAfter (re)arms the timer to fire d after the current virtual time.
func (t *Timer) ResetAfter(d time.Duration) {
	if d < 0 {
		d = 0
	}
	t.Reset(t.sched.Now() + d)
}

// Stop cancels the pending occurrence, if any, and reports whether one was
// pending. The timer stays usable; Reset re-arms it.
func (t *Timer) Stop() bool { return t.h.Cancel() }

// Pending reports whether the timer is armed and has not fired yet.
func (t *Timer) Pending() bool { return t.h.Pending() }

// At returns the deadline of the pending occurrence, or zero when unarmed.
func (t *Timer) At() Time { return t.h.At() }
