package tcp

import (
	"testing"
	"testing/quick"
	"time"

	"tcppr/internal/sim"
)

func TestRTOInitialValue(t *testing.T) {
	e := NewRTOEstimator(0, 0, 0)
	if got := e.RTO(); got != DefaultInitialRTO {
		t.Errorf("initial RTO = %v, want %v", got, DefaultInitialRTO)
	}
	if e.HasSample() {
		t.Error("fresh estimator claims to have a sample")
	}
}

func TestRTOFirstSample(t *testing.T) {
	e := NewRTOEstimator(0, 0, 0)
	e.OnSample(100 * time.Millisecond)
	// SRTT = 100ms, RTTVAR = 50ms, RTO = 300ms, floored to 1s.
	if e.SRTT() != 100*time.Millisecond {
		t.Errorf("SRTT = %v, want 100ms", e.SRTT())
	}
	if got := e.RTO(); got != time.Second {
		t.Errorf("RTO = %v, want the 1s floor", got)
	}
}

func TestRTOJacobsonUpdate(t *testing.T) {
	e := NewRTOEstimator(time.Millisecond, 0, 0) // low floor to expose the formula
	e.OnSample(100 * time.Millisecond)
	e.OnSample(200 * time.Millisecond)
	// RTTVAR = 3/4*50 + 1/4*|100-200| = 62.5ms; SRTT = 7/8*100 + 1/8*200 = 112.5ms.
	wantSRTT := 112500 * time.Microsecond
	if e.SRTT() != wantSRTT {
		t.Errorf("SRTT = %v, want %v", e.SRTT(), wantSRTT)
	}
	want := wantSRTT + 4*62500*time.Microsecond
	if got := e.RTO(); got != want {
		t.Errorf("RTO = %v, want %v", got, want)
	}
}

func TestRTOBackoffDoublesAndCaps(t *testing.T) {
	e := NewRTOEstimator(time.Second, 8*time.Second, 0)
	e.OnSample(10 * time.Millisecond) // RTO floors at 1s
	seen := []time.Duration{e.RTO()}
	for i := 0; i < 6; i++ {
		e.Backoff()
		seen = append(seen, e.RTO())
	}
	want := []time.Duration{1, 2, 4, 8, 8, 8, 8}
	for i, w := range want {
		if seen[i] != w*time.Second {
			t.Fatalf("RTO sequence %v, want %v seconds", seen, want)
		}
	}
	// A fresh sample clears the back-off.
	e.OnSample(10 * time.Millisecond)
	if e.RTO() != time.Second {
		t.Errorf("RTO after sample = %v, want 1s", e.RTO())
	}
}

func TestRTONonPositiveSample(t *testing.T) {
	e := NewRTOEstimator(0, 0, 0)
	e.OnSample(0) // must not panic or poison the estimator
	if !e.HasSample() {
		t.Error("zero sample should still count as a sample")
	}
	if e.RTO() < DefaultMinRTO {
		t.Error("RTO fell below the floor")
	}
}

// Property: RTO is always within [minRTO, maxRTO] whatever samples and
// backoffs are applied.
func TestRTOBoundsProperty(t *testing.T) {
	f := func(samples []uint32, backoffs uint8) bool {
		e := NewRTOEstimator(0, 0, 0)
		for _, s := range samples {
			e.OnSample(time.Duration(s%5_000_000) * time.Microsecond)
		}
		for i := uint8(0); i < backoffs%12; i++ {
			e.Backoff()
		}
		rto := e.RTO()
		return rto >= DefaultMinRTO && rto <= DefaultMaxRTO
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSendTimesKarn(t *testing.T) {
	var st SendTimes
	st.Sent(1, 1000, false)
	st.Sent(2, 2000, false)
	st.Sent(2, 5000, true) // retransmission of 2

	if rtt, ok := st.Sample(1, 4000); !ok || rtt != 3000 {
		t.Errorf("Sample(1) = (%v,%v), want (3000,true)", rtt, ok)
	}
	if _, ok := st.Sample(2, 9000); ok {
		t.Error("Karn's rule: retransmitted segment must not yield a sample")
	}
	if _, ok := st.Sample(99, 0); ok {
		t.Error("unknown segment must not yield a sample")
	}
	if !st.WasRetx(2) || st.WasRetx(1) {
		t.Error("WasRetx bookkeeping wrong")
	}

	st.Forget(2)
	if _, ok := st.SentAt(1); ok {
		t.Error("Forget(2) should drop seq 1")
	}
	if at, ok := st.SentAt(2); !ok || at != 5000 {
		t.Error("Forget(2) should keep seq 2")
	}
}

// Property: SendTimes with its [low, high) window answers exactly like
// plain maps whose Forget scans every key, for any interleaving of sends
// (forward, backward, far ahead, of already-forgotten sequences) and
// forgets (below, inside, past the recorded range).
func TestSendTimesMatchesMapScanProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		var st SendTimes
		times, retx := map[int64]sim.Time{}, map[int64]bool{}
		for i, o := range ops {
			seq := int64(o>>2) % 64
			switch o % 4 {
			case 0, 1:
				isRetx := o%4 == 1
				st.Sent(seq, sim.Time(i), isRetx)
				times[seq] = sim.Time(i)
				if isRetx {
					retx[seq] = true
				}
			default:
				st.Forget(seq)
				for s := range times {
					if s < seq {
						delete(times, s)
						delete(retx, s)
					}
				}
			}
			for s := int64(-1); s <= 64; s++ {
				at, ok := st.SentAt(s)
				wantAt, wantOK := times[s]
				if at != wantAt || ok != wantOK || st.WasRetx(s) != retx[s] {
					t.Logf("op %d: seq %d: SentAt=(%v,%v) WasRetx=%v, want (%v,%v) %v",
						i, s, at, ok, st.WasRetx(s), wantAt, wantOK, retx[s])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestRTOTimerRearmMigration drives an RTOEstimator through a sim.Timer
// the way a sender's retransmission timer does: every cumulative advance
// re-arms the timer at now+RTO, and backoff pushes the deadline out. The
// stale deadlines left behind by each Reset must never fire, and the
// surviving deadline must track the estimator exactly.
func TestRTOTimerRearmMigration(t *testing.T) {
	s := sim.NewScheduler()
	e := NewRTOEstimator(0, 0, 0)
	var fired []sim.Time
	tm := sim.NewTimer(s, func() { fired = append(fired, s.Now()) })

	// t=0: first segment out, timer armed at the initial conservative RTO.
	tm.Reset(sim.Time(e.RTO()))
	if got := tm.At(); got != sim.Time(DefaultInitialRTO) {
		t.Fatalf("armed at %v, want %v", got, DefaultInitialRTO)
	}

	// t=100ms: ACK arrives, sample taken, timer migrates to now+RTO. The
	// old deadline (3s) is cancelled, not left to fire.
	s.At(sim.Time(100*time.Millisecond), func() {
		e.OnSample(100 * time.Millisecond)
		tm.ResetAfter(e.RTO())
	})
	// t=300ms: another ACK, another migration.
	s.At(sim.Time(300*time.Millisecond), func() {
		e.OnSample(100 * time.Millisecond)
		tm.ResetAfter(e.RTO())
	})
	s.RunUntil(sim.Time(time.Second))
	if len(fired) != 0 {
		t.Fatalf("timer fired at %v before the live deadline", fired)
	}
	if want := sim.Time(300*time.Millisecond) + sim.Time(e.RTO()); tm.At() != want {
		t.Fatalf("deadline = %v, want %v", tm.At(), want)
	}

	// The surviving deadline fires exactly once, and re-arming from inside
	// the callback (the timeout-retransmit path: back off, send, re-arm)
	// keeps the timer usable.
	deadline := tm.At()
	s.RunUntil(deadline)
	if len(fired) != 1 || fired[0] != deadline {
		t.Fatalf("fired = %v, want exactly [%v]", fired, deadline)
	}
	e.Backoff()
	tm.ResetAfter(e.RTO())
	backedOff := tm.At()
	if got := backedOff - deadline; time.Duration(got) != e.RTO() {
		t.Fatalf("backoff deadline %v after fire, want %v", time.Duration(got), e.RTO())
	}
	// Stop before the backed-off deadline: nothing further fires, and a
	// later Reset still works (Karn: next sample restores the clean RTO).
	if !tm.Stop() {
		t.Fatal("Stop() on an armed timer reported nothing pending")
	}
	s.RunUntil(backedOff + sim.Time(time.Second))
	if len(fired) != 1 {
		t.Fatalf("stopped timer fired again: %v", fired)
	}
	tm.ResetAfter(e.RTO())
	end := tm.At()
	s.RunUntil(end)
	if len(fired) != 2 || fired[1] != end {
		t.Fatalf("re-armed-after-Stop fire = %v, want second fire at %v", fired, end)
	}
}
