package sim

import (
	"math/rand"
	"testing"
	"time"
)

// TestLaneProgramsMatchPlainEvents is the metamorphic test of lanes: random
// programs weighted towards lane traffic (in-order and out-of-order At,
// cancels of whatever the slots hold, Release, short runs) go through
// runProgram, which executes each once through lanes and once with every
// Lane.At replaced by AtFunc and compares both with the reference model —
// fire order, Now, Processed, Len, every handle's Pending and At — after
// every single operation.
func TestLaneProgramsMatchPlainEvents(t *testing.T) {
	mix := []int{opLaneAt, opLaneAt, opLaneAt, opLaneAtAny, opCancel, opCancel, opStep, opStep,
		opRunUntil, opLaneRelease, opAt, opAtFunc, opReset, opResetNear, opStop, opSelfReset}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		p := make([]byte, 2*(50+rng.Intn(250)))
		for j := 0; j < len(p); j += 2 {
			p[j] = byte(rng.Intn(16)<<4 | mix[rng.Intn(len(mix))])
			p[j+1] = byte(rng.Intn(256))
		}
		runProgram(t, p)
	}
}

// TestLaneDeadAnchorTakesFreshOne pins the trap a TCP-PR sender walks into
// on its first round trip: ten loss timers armed with the 3 s initial
// threshold, all cancelled by ACKs, the next armed 30 ms out. The lane's
// anchor sits dead in the heap at 3 s; the new occurrence must get a fresh
// anchor — not the fallback path, and not a 3 s wait — and the dead one is
// popped like any cancelled event.
func TestLaneDeadAnchorTakesFreshOne(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	var l Lane
	l.Init(s, func(any) { fired = append(fired, s.Now()) })

	var hs [10]LaneHandle
	for i := range hs {
		hs[i] = l.At(3*time.Second, nil)
	}
	for i, h := range hs {
		if !l.Pending(h) || !l.Cancel(h) || l.Pending(h) || l.Cancel(h) {
			t.Fatalf("occurrence %d did not cancel exactly once", i)
		}
	}
	if s.Len() != 0 {
		t.Fatalf("Len() = %d after cancelling everything", s.Len())
	}
	if _, ok := s.NextAt(); ok {
		t.Fatal("NextAt reports an event on a drained queue")
	}
	h := l.At(30*time.Millisecond, nil)
	l.At(40*time.Millisecond, nil)
	if at, ok := s.NextAt(); !ok || at != 30*time.Millisecond || !l.Pending(h) {
		t.Fatalf("NextAt() = %v, %v, want 30ms", at, ok)
	}
	s.Run()
	if len(fired) != 2 || fired[0] != 30*time.Millisecond || fired[1] != 40*time.Millisecond {
		t.Fatalf("fired at %v, want [30ms 40ms]", fired)
	}
	// NextAt on the drained queue already popped the dead anchor, so the
	// second anchor is the only other entry the heap ever held.
	want := Stats{Pushes: 2, Pops: 2, CancelledPops: 1, LanePushes: 12, MaxHeapLen: 1}
	if st := s.Stats(); st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
}

// TestLaneAnchorRevivedInPlace: a lane drained by Cancel whose next
// occurrence is not before the dead anchor's key reuses that anchor — no
// second push, and the occurrence fires at its own time.
func TestLaneAnchorRevivedInPlace(t *testing.T) {
	s := NewScheduler()
	fired := 0
	var l Lane
	l.Init(s, func(any) { fired++ })
	l.Cancel(l.At(time.Second, nil))
	l.At(2*time.Second, nil)
	s.At(1500*time.Millisecond, func() {
		if fired != 0 {
			t.Error("the revived occurrence fired at the dead anchor's old time")
		}
	})
	s.Run()
	if fired != 1 || s.Now() != 2*time.Second {
		t.Fatalf("fired %d times, clock %v", fired, s.Now())
	}
	if st := s.Stats(); st.Pushes != 2 || st.CancelledPops != 0 || st.StaleSinks != 1 || st.LaneFallbacks != 0 {
		t.Fatalf("stats %+v, want 2 pushes (anchor and the plain event), 1 stale sink, no cancelled pop", st)
	}
}

// TestLaneOutOfOrderFallsBack: an occurrence earlier than the lane's last
// one becomes a plain event and still fires in (time, sequence) order with
// the lane's own occurrences, including a same-timestamp tie.
func TestLaneOutOfOrderFallsBack(t *testing.T) {
	s := NewScheduler()
	var got []int
	var l Lane
	l.Init(s, func(arg any) { got = append(got, *arg.(*int)) })
	ids := []int{0, 1, 2, 3}
	l.At(10, &ids[0])
	l.At(30, &ids[1])
	h := l.At(20, &ids[2]) // before the tail: fallback
	l.At(30, &ids[3])      // equal to the tail: in order
	if st := s.Stats(); st.LanePushes != 3 || st.LaneFallbacks != 1 || st.Pushes != 2 {
		t.Fatalf("stats %+v, want 3 lane pushes, 1 fallback, 2 heap pushes", st)
	}
	if !l.Pending(h) || s.Len() != 4 {
		t.Fatalf("fallback handle pending=%v, Len %d", l.Pending(h), s.Len())
	}
	s.Run()
	want := []int{0, 2, 1, 3}
	for i := range want {
		if len(got) != len(want) || got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
}

// TestLaneReleaseRecyclesRing: a released ring serves the scheduler's next
// lane, handles from before the Release stay inert, and a lane with
// something waiting keeps its storage.
func TestLaneReleaseRecyclesRing(t *testing.T) {
	s := NewScheduler()
	var a, b Lane
	a.Init(s, func(any) {})
	b.Init(s, func(any) {})

	old := a.At(5, nil)
	a.Release() // something waits: a no-op
	if a.ring == nil || !a.Pending(old) {
		t.Fatal("Release took the ring of a lane with a waiting occurrence")
	}
	s.Run()
	ring := &a.ring[0]
	a.Release()
	if a.ring != nil || s.RingPoolLen() != 1 {
		t.Fatalf("drained lane kept its ring (pool holds %d)", s.RingPoolLen())
	}
	hb := b.At(9, nil)
	if &b.ring[0] != ring || s.RingPoolLen() != 0 {
		t.Fatal("the next lane did not take the released ring")
	}
	ha := a.At(9, nil) // a is usable again, on a ring of its own
	if a.Pending(old) || a.Cancel(old) || a.Pending(LaneHandle{}) || a.Cancel(LaneHandle{}) || !a.Pending(ha) || !b.Pending(hb) {
		t.Fatal("a handle from before the Release is not inert")
	}
	s.Run()
	if s.Processed() != 3 {
		t.Fatalf("processed %d events, want 3", s.Processed())
	}
}

// TestLaneSteadyStateZeroAllocs pins both traffic patterns at zero
// allocations per occurrence once the ring and the event pool are warm: a
// FIFO whose callback appends the next occurrence (a link), and a window of
// timers cancelled from the head and re-armed at the tail (TCP-PR).
func TestLaneSteadyStateZeroAllocs(t *testing.T) {
	s := NewScheduler()
	var fifo, timers Lane
	fifo.Init(s, func(any) { fifo.At(s.Now()+100*time.Microsecond, nil) })
	timers.Init(s, func(any) { t.Error("a cancelled loss timer fired") })
	for i := 1; i <= 10; i++ {
		fifo.At(Time(i)*10*time.Microsecond, nil)
	}
	var window [16]LaneHandle
	n := 0
	ack := func() {
		timers.Cancel(window[n%len(window)])
		window[n%len(window)] = timers.At(s.Now()+time.Second, nil)
		n++
	}
	for i := 0; i < 64; i++ {
		ack()
		s.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		ack()
		if !s.Step() {
			t.Fatal("queue drained")
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state lane scheduling allocates %.1f objects/event, want 0", allocs)
	}
}
