package netem

import (
	"testing"
	"time"

	"tcppr/internal/sim"
)

// recordObs is a test Observer that logs every lifecycle callback.
type recordObs struct {
	sent, enq, del, dup int
	drops               []DropCause
	traces              []uint64
	parents             []uint64
}

func (o *recordObs) PacketSent(p *Packet) { o.sent++; o.traces = append(o.traces, p.Trace) }
func (o *recordObs) PacketEnqueued(l *Link, p *Packet, txStart, txEnd, arrive sim.Time) {
	o.enq++
}
func (o *recordObs) PacketDelivered(l *Link, p *Packet) { o.del++ }
func (o *recordObs) PacketDropped(l *Link, p *Packet, cause DropCause) {
	o.drops = append(o.drops, cause)
}
func (o *recordObs) PacketDuplicated(l *Link, orig, dup *Packet, txEnd, arrive sim.Time) {
	o.dup++
	o.traces = append(o.traces, dup.Trace)
	o.parents = append(o.parents, dup.Parent)
}
func (o *recordObs) PacketRepair(*Link, *Packet, RepairAction, sim.Time) {}

// funcObs is a test Observer that reports every callback to one func, by
// kind: "sent", "enq", "del", "drop", "dup" (with the copy) or "repair".
type funcObs func(kind string, l *Link, p *Packet)

func (f funcObs) PacketSent(p *Packet)                                    { f("sent", nil, p) }
func (f funcObs) PacketEnqueued(l *Link, p *Packet, _, _, _ sim.Time)     { f("enq", l, p) }
func (f funcObs) PacketDelivered(l *Link, p *Packet)                      { f("del", l, p) }
func (f funcObs) PacketDropped(l *Link, p *Packet, _ DropCause)           { f("drop", l, p) }
func (f funcObs) PacketDuplicated(l *Link, _, dup *Packet, _, _ sim.Time) { f("dup", l, dup) }
func (f funcObs) PacketRepair(l *Link, p *Packet, _ RepairAction, _ sim.Time) {
	f("repair", l, p)
}

// TestDropCauseAttribution drives every drop path and asserts each one
// lands in its own LinkStats counter and reports its own DropCause to the
// observer — no lumping.
func TestDropCauseAttribution(t *testing.T) {
	type counts struct {
		dropped, red, random, blackout, corrupted uint64
	}
	cases := []struct {
		name  string
		rig   func(s *sim.Scheduler, l *Link) // install the impairment
		cause DropCause
		want  func(LinkStats) counts // observed vs expected split
	}{
		{
			name:  "queue-overflow",
			rig:   func(s *sim.Scheduler, l *Link) { l.SetQueueCap(1) },
			cause: DropQueueFull,
			want: func(st LinkStats) counts {
				return counts{dropped: st.Dropped}
			},
		},
		{
			name: "red-early",
			rig: func(s *sim.Scheduler, l *Link) {
				r := NewRED(4, sim.NewRand(11))
				r.Weight = 1 // track the instantaneous queue: overload drops immediately
				l.AttachRED(r)
			},
			cause: DropRED,
			want: func(st LinkStats) counts {
				return counts{red: st.REDDropped}
			},
		},
		{
			name:  "loss-model",
			rig:   func(s *sim.Scheduler, l *Link) { l.SetLoss(1, nil) },
			cause: DropLoss,
			want: func(st LinkStats) counts {
				return counts{random: st.RandomDropped}
			},
		},
		{
			name:  "blackout",
			rig:   func(s *sim.Scheduler, l *Link) { l.SetDown(true) },
			cause: DropBlackout,
			want: func(st LinkStats) counts {
				return counts{blackout: st.BlackoutDropped}
			},
		},
		{
			name:  "corruption",
			rig:   func(s *sim.Scheduler, l *Link) { l.SetImpairment(NewCorruption(1, sim.NewRand(12))) },
			cause: DropCorrupt,
			want: func(st LinkStats) counts {
				return counts{corrupted: st.Corrupted}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, net := newTestNet()
			// Slow link so queue-based cases actually congest.
			l := net.AddLink("a", "b", mbps(1), time.Millisecond, 1<<20)
			net.Node("b").Handle(1, func(*Packet) {})
			obs := &recordObs{}
			net.Observe(obs)
			tc.rig(s, l)
			const n = 50
			for i := 0; i < n; i++ {
				p := net.NewPacket()
				p.Flow, p.Size, p.Path = 1, 1000, []*Link{l}
				net.Send(p)
			}
			s.Run()

			st := l.Stats()
			got := counts{
				dropped: st.Dropped, red: st.REDDropped, random: st.RandomDropped,
				blackout: st.BlackoutDropped, corrupted: st.Corrupted,
			}
			if got != tc.want(st) {
				t.Errorf("drops leaked into the wrong counter: %+v", got)
			}
			total := st.Dropped + st.REDDropped + st.RandomDropped + st.BlackoutDropped + st.Corrupted
			if total == 0 {
				t.Fatalf("impairment produced no drops (stats %+v)", st)
			}
			if uint64(len(obs.drops)) != total {
				t.Fatalf("observer saw %d drops, stats say %d", len(obs.drops), total)
			}
			for _, c := range obs.drops {
				if c != tc.cause {
					t.Fatalf("observer cause = %v, want %v", c, tc.cause)
				}
			}
			// Corrupt packets die after acceptance, everything else at the
			// queue door: accepted + door-drops must equal the offered load.
			if st.Enqueued+(total-st.Corrupted) != n {
				t.Errorf("conservation: enqueued %d + door drops %d != sent %d",
					st.Enqueued, total-st.Corrupted, n)
			}
			if dr := st.DropRate(); dr <= 0 {
				t.Errorf("DropRate() = %v, want > 0", dr)
			}
		})
	}
}

// TestObserverLifecycleAndTraceIDs checks the happy-path callback algebra
// (sent == enqueued == delivered, every enqueued packet's queue slot freed
// when its serialization completes) and that every physical packet copy
// gets a distinct trace ID, with duplicates parented to the copy they were
// cloned from.
func TestObserverLifecycleAndTraceIDs(t *testing.T) {
	s, net := newTestNet()
	l1 := net.AddLink("a", "m", mbps(10), time.Millisecond, 64)
	l2 := net.AddLink("m", "b", mbps(10), time.Millisecond, 64)
	l2.SetImpairment(NewDuplication(1, sim.NewRand(3))) // every packet duplicated on hop 2
	net.Node("b").Handle(1, func(*Packet) {})
	obs := &recordObs{}
	net.Observe(obs)

	const n = 10
	for i := 0; i < n; i++ {
		p := net.NewPacket()
		p.Flow, p.Size, p.Path = 1, 1000, []*Link{l1, l2}
		net.Send(p)
	}
	// 1000 bytes at 10 Mbps serialize in 0.8 ms: at 2 ms hop 1 is in the
	// middle of its third packet, and hop 2 (whose first packet arrived at
	// 1.8 ms) in the middle of its first.
	s.RunUntil(2 * time.Millisecond)
	if q, d := l1.QueueLen(), l1.Stats().Dequeued; q != n-2 || d != 2 {
		t.Errorf("hop 1 at 2 ms: queue %d, dequeued %d, want %d and 2", q, d, n-2)
	}
	if q, d := l2.QueueLen(), l2.Stats().Dequeued; q != 1 || d != 0 {
		t.Errorf("hop 2 at 2 ms: queue %d, dequeued %d, want 1 and 0", q, d)
	}
	s.Run()

	if obs.sent != n {
		t.Errorf("sent callbacks = %d, want %d", obs.sent, n)
	}
	// Two hops per original; the duplicate is cloned after its original was
	// enqueued, so it delivers without an enqueue or a queue slot of its own.
	if obs.enq != 2*n {
		t.Errorf("enq = %d, want %d", obs.enq, 2*n)
	}
	for _, l := range []*Link{l1, l2} {
		if q, d := l.QueueLen(), l.Stats().Dequeued; q != 0 || d != n {
			t.Errorf("%s after the run: queue %d, dequeued %d, want 0 and %d", l, q, d, n)
		}
	}
	if obs.dup != n {
		t.Errorf("duplicated callbacks = %d, want %d", obs.dup, n)
	}
	if obs.del != 3*n { // hop1 + hop2 original + hop2 duplicate
		t.Errorf("delivered callbacks = %d, want %d", obs.del, 3*n)
	}
	seen := map[uint64]bool{}
	for _, tr := range obs.traces {
		if tr == 0 || seen[tr] {
			t.Fatalf("trace ID %d missing or reused", tr)
		}
		seen[tr] = true
	}
	for _, par := range obs.parents {
		if !seen[par] {
			t.Fatalf("duplicate parent %d is not a known trace", par)
		}
	}
}
