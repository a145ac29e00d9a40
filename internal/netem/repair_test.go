package netem

import (
	"testing"
	"time"

	"tcppr/internal/sim"
)

// repairSeg is the test stand-in for a transport data segment: netem's
// white-box tests cannot import internal/tcp (layering), so they carry
// their own SequencedPayload.
type repairSeg struct{ seq int64 }

func (s repairSeg) RepairSeq() int64 { return s.seq }

type repairSend struct {
	at   time.Duration
	flow int
	seq  int64
}

type repairArrival struct {
	flow int
	seq  int64
	at   sim.Time
}

// repairRun pushes a scripted (flow, seq) stream through a one-hop link
// and returns the arrivals in delivery order. Sends are spaced wider
// than the 0.8ms serialization time, so with no reorder model the box
// sees them exactly in script order.
func repairRun(t *testing.T, configure func(*Link), sends []repairSend) ([]repairArrival, *Link) {
	t.Helper()
	s := sim.NewScheduler()
	net := NewNetwork(s)
	l := net.AddLink("a", "b", 10_000_000, time.Millisecond, len(sends)+10)
	configure(l)
	var got []repairArrival
	handled := map[int]bool{}
	for _, sd := range sends {
		if handled[sd.flow] {
			continue
		}
		handled[sd.flow] = true
		flow := sd.flow
		net.Node("b").Handle(flow, func(p *Packet) {
			seq := int64(-1)
			if sp, ok := p.Payload.(SequencedPayload); ok {
				seq = sp.RepairSeq()
			}
			got = append(got, repairArrival{flow: flow, seq: seq, at: s.Now()})
		})
	}
	for _, sd := range sends {
		sd := sd
		s.At(sim.Time(sd.at), func() {
			p := net.NewPacket()
			p.Flow, p.Size, p.Path = sd.flow, 1000, []*Link{l}
			p.Payload = repairSeg{seq: sd.seq}
			if !net.Send(p) {
				t.Fatal("send rejected")
			}
		})
	}
	s.Run()
	return got, l
}

func repairSeqs(arrivals []repairArrival, flow int) []int64 {
	var out []int64
	for _, a := range arrivals {
		if a.flow == flow {
			out = append(out, a.seq)
		}
	}
	return out
}

// TestRepairResequencesSwappedStream: the core contract — a swapped pair
// is held and released in order when the gap fills, and the custody
// ledger balances.
func TestRepairResequencesSwappedStream(t *testing.T) {
	box := NewRepairBox(RepairConfig{})
	got, l := repairRun(t, func(l *Link) { l.SetRepair(box) }, []repairSend{
		{0, 1, 0},
		{2 * time.Millisecond, 1, 2}, // overtook seq 1
		{4 * time.Millisecond, 1, 1},
		{6 * time.Millisecond, 1, 3},
	})
	want := []int64{0, 1, 2, 3}
	seqs := repairSeqs(got, 1)
	if len(seqs) != len(want) {
		t.Fatalf("delivered %d of %d packets: %v", len(seqs), len(want), seqs)
	}
	for i := range want {
		if seqs[i] != want[i] {
			t.Fatalf("arrival order %v, want %v", seqs, want)
		}
	}
	st := box.Stats()
	if st.Held != 1 || st.Released != 1 || st.GapFilled != 1 {
		t.Errorf("ledger held=%d released=%d gap=%d, want 1/1/1", st.Held, st.Released, st.GapFilled)
	}
	ls := l.Stats()
	if ls.RepairHeld != 1 || ls.RepairReleased != 1 || l.RepairHeldNow() != 0 {
		t.Errorf("link ledger held=%d released=%d now=%d", ls.RepairHeld, ls.RepairReleased, l.RepairHeldNow())
	}
	if st.HoldTime <= 0 {
		t.Error("release accounted no hold time")
	}
}

// TestRepairFirstPacketDefinesStreamPosition: a box joining mid-stream
// anchors on the first sequence it sees instead of holding forever for
// sequence zero.
func TestRepairFirstPacketDefinesStreamPosition(t *testing.T) {
	box := NewRepairBox(RepairConfig{})
	got, _ := repairRun(t, func(l *Link) { l.SetRepair(box) }, []repairSend{
		{0, 1, 5},
		{2 * time.Millisecond, 1, 7},
		{4 * time.Millisecond, 1, 6},
	})
	want := []int64{5, 6, 7}
	seqs := repairSeqs(got, 1)
	for i := range want {
		if i >= len(seqs) || seqs[i] != want[i] {
			t.Fatalf("arrival order %v, want %v", seqs, want)
		}
	}
	if st := box.Stats(); st.Held != 1 || st.GapFilled != 1 {
		t.Errorf("ledger %+v, want one hold resolved by the gap fill", st)
	}
}

// TestRepairHoldTimeoutReleasesStalledGap: when the missing packet never
// comes, the hold timeout flushes the buffer in order and the stream
// resumes past the gap; a late copy of the missing packet then passes
// through as a retransmission.
func TestRepairHoldTimeoutReleasesStalledGap(t *testing.T) {
	box := NewRepairBox(RepairConfig{HoldTimeout: 10 * time.Millisecond})
	got, _ := repairRun(t, func(l *Link) { l.SetRepair(box) }, []repairSend{
		{0, 1, 0},
		{2 * time.Millisecond, 1, 2}, // seq 1 lost upstream
		{4 * time.Millisecond, 1, 3},
		{50 * time.Millisecond, 1, 1}, // late retransmission
		{52 * time.Millisecond, 1, 4}, // stream continues in order
	})
	want := []int64{0, 2, 3, 1, 4}
	seqs := repairSeqs(got, 1)
	if len(seqs) != len(want) {
		t.Fatalf("delivered %v, want %v", seqs, want)
	}
	for i := range want {
		if seqs[i] != want[i] {
			t.Fatalf("arrival order %v, want %v", seqs, want)
		}
	}
	// 2 and 3 must have waited out the full timeout, not dribbled early.
	if gap := got[1].at - got[0].at; gap < sim.Time(8*time.Millisecond) {
		t.Errorf("timed-out packet released after %v, want ≥ the 10ms hold timeout minus arrival spacing", gap)
	}
	st := box.Stats()
	if st.TimedOut != 2 {
		t.Errorf("TimedOut = %d, want 2", st.TimedOut)
	}
	if st.RetxPassthrough != 1 {
		t.Errorf("RetxPassthrough = %d, want 1 (the late seq 1)", st.RetxPassthrough)
	}
	if st.Held != st.Released {
		t.Errorf("ledger held=%d released=%d", st.Held, st.Released)
	}
}

// TestRepairDupPassthrough: a duplicate of a held sequence forwards
// immediately instead of double-buffering.
func TestRepairDupPassthrough(t *testing.T) {
	box := NewRepairBox(RepairConfig{})
	got, _ := repairRun(t, func(l *Link) { l.SetRepair(box) }, []repairSend{
		{0, 1, 0},
		{2 * time.Millisecond, 1, 2},
		{4 * time.Millisecond, 1, 2}, // duplicate of the held packet
		{6 * time.Millisecond, 1, 1},
	})
	want := []int64{0, 2, 1, 2} // the dup leaks through out of order
	seqs := repairSeqs(got, 1)
	if len(seqs) != len(want) {
		t.Fatalf("delivered %v, want %v", seqs, want)
	}
	for i := range want {
		if seqs[i] != want[i] {
			t.Fatalf("arrival order %v, want %v", seqs, want)
		}
	}
	if st := box.Stats(); st.DupPassthrough != 1 || st.Held != 1 {
		t.Errorf("stats %+v, want one dup passthrough and one hold", st)
	}
}

// TestRepairNonSequencedPassthrough: payloads without a repair sequence
// (ACKs) never enter the flow table.
func TestRepairNonSequencedPassthrough(t *testing.T) {
	box := NewRepairBox(RepairConfig{})
	s := sim.NewScheduler()
	net := NewNetwork(s)
	l := net.AddLink("a", "b", 10_000_000, time.Millisecond, 10)
	l.SetRepair(box)
	delivered := 0
	net.Node("b").Handle(1, func(*Packet) { delivered++ })
	p := net.NewPacket()
	p.Flow, p.Size, p.Path = 1, 40, []*Link{l}
	p.Payload = "opaque"
	net.Send(p)
	s.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d, want 1", delivered)
	}
	st := box.Stats()
	if st.Passthrough != 1 || st.Seen != 0 || box.FlowCount() != 0 {
		t.Errorf("stats %+v flows=%d, want pure passthrough", st, box.FlowCount())
	}
}

// TestRepairOverflowForward: with the forward policy, cap pressure
// degrades the box to a wire — the overflowing packet leaks through
// unrepaired, nothing is dropped.
func TestRepairOverflowForward(t *testing.T) {
	box := NewRepairBox(RepairConfig{FlowCap: 2, HoldTimeout: 10 * time.Millisecond})
	got, l := repairRun(t, func(l *Link) { l.SetRepair(box) }, []repairSend{
		{0, 1, 0},
		{2 * time.Millisecond, 1, 2},
		{4 * time.Millisecond, 1, 3},
		{6 * time.Millisecond, 1, 4}, // third would-hold: over FlowCap
		{8 * time.Millisecond, 1, 1}, // gap fills; 2,3 drain
	})
	want := []int64{0, 4, 1, 2, 3}
	seqs := repairSeqs(got, 1)
	if len(seqs) != len(want) {
		t.Fatalf("delivered %v, want %v", seqs, want)
	}
	for i := range want {
		if seqs[i] != want[i] {
			t.Fatalf("arrival order %v, want %v", seqs, want)
		}
	}
	st := box.Stats()
	if st.OverflowForwarded != 1 || st.OverflowDropped != 0 {
		t.Errorf("overflow fwd=%d drop=%d, want 1/0", st.OverflowForwarded, st.OverflowDropped)
	}
	if l.Stats().RepairDropped != 0 {
		t.Error("forward policy dropped packets")
	}
}

// TestRepairOverflowDrop: with the drop policy, cap pressure converts
// reordering into loss, attributed to DropRepairOverflow.
func TestRepairOverflowDrop(t *testing.T) {
	box := NewRepairBox(RepairConfig{FlowCap: 2, HoldTimeout: 10 * time.Millisecond, Overflow: RepairDrop})
	obs := &recordObs{}
	got, l := repairRun(t, func(l *Link) {
		l.SetRepair(box)
		l.net.Observe(obs)
	}, []repairSend{
		{0, 1, 0},
		{2 * time.Millisecond, 1, 2},
		{4 * time.Millisecond, 1, 3},
		{6 * time.Millisecond, 1, 4}, // over FlowCap: dropped
		{8 * time.Millisecond, 1, 1},
	})
	want := []int64{0, 1, 2, 3}
	seqs := repairSeqs(got, 1)
	if len(seqs) != len(want) {
		t.Fatalf("delivered %v, want %v", seqs, want)
	}
	st := box.Stats()
	if st.OverflowDropped != 1 {
		t.Errorf("OverflowDropped = %d, want 1", st.OverflowDropped)
	}
	if l.Stats().RepairDropped != 1 {
		t.Errorf("LinkStats.RepairDropped = %d, want 1", l.Stats().RepairDropped)
	}
	if len(obs.drops) != 1 || obs.drops[0] != DropRepairOverflow {
		t.Errorf("observer drops = %v, want one DropRepairOverflow", obs.drops)
	}
	if DropRepairOverflow.String() != "repair-overflow" {
		t.Errorf("DropRepairOverflow.String() = %q", DropRepairOverflow)
	}
}

// TestRepairLRUEviction: admitting a flow past MaxFlows evicts the
// least-recently-active flow and flushes its buffer unrepaired.
func TestRepairLRUEviction(t *testing.T) {
	box := NewRepairBox(RepairConfig{MaxFlows: 2, HoldTimeout: time.Second})
	got, _ := repairRun(t, func(l *Link) { l.SetRepair(box) }, []repairSend{
		{0, 1, 0},
		{1 * time.Millisecond, 1, 2}, // flow 1 holds seq 2
		{2 * time.Millisecond, 2, 0}, // flow 2 is now most recent
		{3 * time.Millisecond, 3, 0}, // table full: flow 1 evicted
	})
	seqs := repairSeqs(got, 1)
	want := []int64{0, 2} // the held packet flushed on eviction
	if len(seqs) != len(want) || seqs[0] != want[0] || seqs[1] != want[1] {
		t.Fatalf("flow 1 arrivals %v, want %v", seqs, want)
	}
	st := box.Stats()
	if st.Evicted != 1 || st.FlowsEvicted != 1 {
		t.Errorf("evicted packets=%d flows=%d, want 1/1", st.Evicted, st.FlowsEvicted)
	}
	if box.FlowCount() != 2 {
		t.Errorf("flow table holds %d flows, want 2", box.FlowCount())
	}
}

// TestRepairIdleEviction: empty, long-idle flows leave the table on
// their own.
func TestRepairIdleEviction(t *testing.T) {
	box := NewRepairBox(RepairConfig{IdleTimeout: 10 * time.Millisecond})
	repairRun(t, func(l *Link) { l.SetRepair(box) }, []repairSend{
		{0, 1, 0},
		{50 * time.Millisecond, 2, 0}, // flow 1 idle well past 10ms
	})
	if box.FlowCount() != 1 {
		t.Errorf("flow table holds %d flows, want 1 after idle eviction", box.FlowCount())
	}
	if st := box.Stats(); st.FlowsEvicted != 1 {
		t.Errorf("FlowsEvicted = %d, want 1", st.FlowsEvicted)
	}
}

// TestRepairFlushReleasesEverything: Flush hands back every held packet
// (the repair-ledger end-of-run requirement) and clears the table.
func TestRepairFlushReleasesEverything(t *testing.T) {
	box := NewRepairBox(RepairConfig{HoldTimeout: time.Hour})
	s := sim.NewScheduler()
	net := NewNetwork(s)
	l := net.AddLink("a", "b", 10_000_000, time.Millisecond, 20)
	l.SetRepair(box)
	var seqs []int64
	net.Node("b").Handle(1, func(p *Packet) { seqs = append(seqs, p.Payload.(SequencedPayload).RepairSeq()) })
	for i, seq := range []int64{0, 3, 2} {
		at := sim.Time(i) * sim.Time(2*time.Millisecond)
		s.At(at, func() {
			p := net.NewPacket()
			p.Flow, p.Size, p.Path = 1, 1000, []*Link{l}
			p.Payload = repairSeg{seq: seq}
			net.Send(p)
		})
	}
	s.RunUntil(sim.Time(20 * time.Millisecond))
	if l.RepairHeldNow() != 2 {
		t.Fatalf("held %d at horizon, want 2 (gap at seq 1 never fills)", l.RepairHeldNow())
	}
	box.Flush()
	if l.RepairHeldNow() != 0 || box.FlowCount() != 0 {
		t.Fatalf("after Flush: held=%d flows=%d, want 0/0", l.RepairHeldNow(), box.FlowCount())
	}
	want := []int64{0, 2, 3} // flush releases in sequence order
	if len(seqs) != len(want) {
		t.Fatalf("arrivals %v, want %v", seqs, want)
	}
	for i := range want {
		if seqs[i] != want[i] {
			t.Fatalf("arrivals %v, want %v", seqs, want)
		}
	}
	if st := box.Stats(); st.Flushed != 2 || st.Held != st.Released {
		t.Errorf("ledger %+v, want 2 flush releases balancing the ledger", st)
	}
}

// TestRepairRescuesSwapReorderedStream is the end-to-end claim: a
// well-provisioned box downstream of a severe swap reorderer hands the
// receiver a fully in-order stream.
func TestRepairRescuesSwapReorderedStream(t *testing.T) {
	s := sim.NewScheduler()
	net := NewNetwork(s)
	l := net.AddLink("a", "b", 10_000_000, time.Millisecond, 400)
	sc, err := ReorderScenarioByName("swap-high")
	if err != nil {
		t.Fatal(err)
	}
	l.SetReorderModel(sc.New(sim.NewRand(3)))
	box := NewRepairBox(RepairConfig{HoldTimeout: 200 * time.Millisecond})
	l.SetRepair(box)
	var seqs []int64
	net.Node("b").Handle(1, func(p *Packet) { seqs = append(seqs, p.Payload.(SequencedPayload).RepairSeq()) })
	const n = 300
	for i := 0; i < n; i++ {
		seq := int64(i)
		s.At(sim.Time(i)*sim.Time(time.Millisecond), func() {
			p := net.NewPacket()
			p.Flow, p.Size, p.Path = 1, 1000, []*Link{l}
			p.Payload = repairSeg{seq: seq}
			net.Send(p)
		})
	}
	s.Run()
	if len(seqs) != n {
		t.Fatalf("delivered %d of %d", len(seqs), n)
	}
	for i, seq := range seqs {
		if seq != int64(i) {
			t.Fatalf("arrival %d carries seq %d: repair left the stream out of order", i, seq)
		}
	}
	st := box.Stats()
	if st.Held == 0 {
		t.Fatal("box held nothing under swap-high; test is vacuous")
	}
	if st.Held != st.Released || l.RepairHeldNow() != 0 {
		t.Errorf("ledger held=%d released=%d now=%d", st.Held, st.Released, l.RepairHeldNow())
	}
	if st.TimedOut != 0 {
		t.Errorf("%d timeout releases under a bounded-displacement model; every gap should fill", st.TimedOut)
	}
}

// TestRepairSwapPanicsWhileHeld: swapping boxes mid-custody would strand
// packets.
func TestRepairSwapPanicsWhileHeld(t *testing.T) {
	box := NewRepairBox(RepairConfig{HoldTimeout: time.Hour})
	s := sim.NewScheduler()
	net := NewNetwork(s)
	l := net.AddLink("a", "b", 10_000_000, time.Millisecond, 10)
	l.SetRepair(box)
	net.Node("b").Handle(1, func(*Packet) {})
	for i, seq := range []int64{0, 2} {
		seq := seq
		s.At(sim.Time(i)*sim.Time(2*time.Millisecond), func() {
			p := net.NewPacket()
			p.Flow, p.Size, p.Path = 1, 1000, []*Link{l}
			p.Payload = repairSeg{seq: seq}
			net.Send(p)
		})
	}
	s.RunUntil(sim.Time(20 * time.Millisecond)) // stop before the 1h hold timer
	if l.RepairHeldNow() != 1 {
		t.Fatalf("held %d, want 1", l.RepairHeldNow())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetRepair while packets held did not panic")
		}
	}()
	l.SetRepair(nil)
}

// TestRepairScenarioCatalog: every canned scenario constructs, and
// lookups fail loudly.
func TestRepairScenarioCatalog(t *testing.T) {
	names := RepairScenarioNames()
	if len(names) != 3 {
		t.Fatalf("catalog has %d scenarios, want none/repair/repair-tight", len(names))
	}
	for _, name := range names {
		sc, err := RepairScenarioByName(name)
		if err != nil {
			t.Fatalf("lookup %q: %v", name, err)
		}
		b := sc.New()
		if (name == "none") != (b == nil) {
			t.Errorf("scenario %q built box=%v", name, b)
		}
		if b != nil && b.Config().HoldTimeout <= 0 {
			t.Errorf("scenario %q has no hold timeout", name)
		}
	}
	if _, err := RepairScenarioByName("bogus"); err == nil {
		t.Fatal("unknown scenario lookup did not error")
	}
}

// TestRepairDetachedZeroAllocs is the acceptance-criteria gate: with no
// box installed, steady-state forwarding through the repair-aware
// delivery path still allocates nothing.
func TestRepairDetachedZeroAllocs(t *testing.T) {
	s := sim.NewScheduler()
	net := NewNetwork(s)
	l1 := net.AddLink("a", "b", 10_000_000, time.Millisecond, 100)
	l2 := net.AddLink("b", "c", 10_000_000, time.Millisecond, 100)
	net.Node("c").Handle(1, func(*Packet) {})
	if l1.Repair() != nil || l2.Repair() != nil {
		t.Fatal("fresh link is not detached")
	}
	path := []*Link{l1, l2}
	send := func() {
		p := net.NewPacket()
		p.Flow, p.Size, p.Path = 1, 1000, path
		if !net.Send(p) {
			t.Fatal("send rejected")
		}
		s.Run()
	}
	send() // prime the pools
	if allocs := testing.AllocsPerRun(500, send); allocs != 0 {
		t.Errorf("detached repair path allocates %.1f objects/packet, want 0", allocs)
	}
}
