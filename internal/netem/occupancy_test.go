package netem

import (
	"fmt"
	"testing"
	"time"

	"tcppr/internal/sim"
)

// The link frees queue slots lazily: no event fires when a serialization
// completes; the departure's key is retired the next time somebody looks
// (Link.settle). The reference model here is the eager link this replaced.
// An observer schedules a real event at every accepted packet's txEnd and
// keeps its own occupancy, decremented when that event fires. The event is
// scheduled from PacketEnqueued, and the link draws nothing from the
// scheduler between stamping the departure and that callback, so the
// shadow event's sequence number is the departure's plus one: no key lies
// between the two, and the shadow fires exactly where a dequeue event would
// have. Whenever occupancy matters — at every departure, every accepted
// packet, every RED or drop-tail rejection, and between runs — the link's
// QueueLen, Stats().Dequeued and Stats().MaxQueue must equal the shadow's,
// and the admission decision must be the one the shadow's occupancy implies.

// shadowQueue is the eager occupancy of one link.
type shadowQueue struct {
	l      *Link
	q, max int
	deq    uint64
}

// shadowObs keeps a shadowQueue per link of one network.
type shadowObs struct {
	t        testing.TB
	s        *sim.Scheduler
	net      *Network
	queues   map[*Link]*shadowQueue
	departFn func(any)
	checks   int
}

func newShadowObs(t testing.TB, s *sim.Scheduler, net *Network) *shadowObs {
	o := &shadowObs{t: t, s: s, net: net, queues: map[*Link]*shadowQueue{}}
	o.departFn = func(arg any) {
		sq := arg.(*shadowQueue)
		sq.q--
		sq.deq++
		o.check(sq, "departure")
	}
	for _, l := range net.Links() {
		o.queues[l] = &shadowQueue{l: l}
	}
	net.Observe(o)
	return o
}

func (o *shadowObs) check(sq *shadowQueue, where string) {
	o.t.Helper()
	o.checks++
	st := sq.l.Stats()
	if got := sq.l.QueueLen(); got != sq.q || st.Dequeued != sq.deq || st.MaxQueue != sq.max {
		o.t.Fatalf("%s on %s at %v: queue %d dequeued %d high-water %d, eager model %d %d %d",
			where, sq.l, o.s.Now(), got, st.Dequeued, st.MaxQueue, sq.q, sq.deq, sq.max)
	}
}

// checkAll compares every link with its shadow from outside a run.
func (o *shadowObs) checkAll(where string) {
	o.t.Helper()
	for _, l := range o.net.Links() {
		o.check(o.queues[l], where)
	}
}

func (o *shadowObs) PacketSent(*Packet)                                           {}
func (o *shadowObs) PacketDelivered(*Link, *Packet)                               {}
func (o *shadowObs) PacketDuplicated(*Link, *Packet, *Packet, sim.Time, sim.Time) {}
func (o *shadowObs) PacketRepair(*Link, *Packet, RepairAction, sim.Time)          {}

func (o *shadowObs) PacketEnqueued(l *Link, _ *Packet, _, txEnd, _ sim.Time) {
	sq := o.queues[l]
	if sq.q >= l.QueueCap {
		o.t.Fatalf("%s at %v accepted a packet with %d of %d slots taken in the eager model", l, o.s.Now(), sq.q, l.QueueCap)
	}
	sq.q++
	sq.max = max(sq.max, sq.q)
	o.check(sq, "enqueue")
	o.s.AtFunc(txEnd, o.departFn, sq)
}

func (o *shadowObs) PacketDropped(l *Link, _ *Packet, cause DropCause) {
	sq := o.queues[l]
	switch cause {
	case DropQueueFull:
		if sq.q < l.QueueCap {
			o.t.Fatalf("%s at %v rejected a packet with %d of %d slots taken in the eager model", l, o.s.Now(), sq.q, l.QueueCap)
		}
		o.check(sq, "drop-tail rejection")
	case DropRED:
		o.check(sq, "RED rejection")
	}
}

// occOp is one step of an occupancy program, executed at virtual time at.
// An early op is scheduled before the clock starts, so its event sorts
// before every departure at the same timestamp; a late op is scheduled by
// the op before it, after that op's Enqueue, so it sorts after that
// packet's departure.
type occOp struct {
	at   sim.Time
	late bool
	kind int // occSend, occSetCap, occSetBandwidth, occSetDelay
	arg  int
}

const (
	occSend         = iota // arg: packet size in bytes
	occSetCap              // arg: new capacity of the first hop
	occSetBandwidth        // arg: new rate of the first hop, Mbps
	occSetDelay            // arg: new delay of the first hop, quarter-milliseconds
)

// occProgram is one scenario: a first hop "a->m" at 8 Mbps (1000 bytes
// serialize in 1 ms) with no propagation delay, so its arrivals hit the
// second hop "m->b" (same rate, 1 ms away) on the timestamps of that hop's
// own departures.
type occProgram struct {
	cap    int
	red    bool
	dup    bool
	oneHop bool
	ops    []occOp
	// The clock runs to pause, then until stopAfter more events have fired
	// (which may be in the middle of a timestamp), then to the end; the
	// links are compared with their shadows from outside the run each time.
	pause     sim.Time
	stopAfter int
}

// runOccupancy runs a program against the eager model and returns the two
// hops (the second nil for a one-hop program) for case-specific checks.
func runOccupancy(t testing.TB, pr occProgram) (l1, l2 *Link) {
	t.Helper()
	s, net := newTestNet()
	l1 = net.AddLink("a", "m", mbps(8), 0, pr.cap)
	path := []*Link{l1}
	dst := "m"
	if !pr.oneHop {
		l2 = net.AddLink("m", "b", mbps(8), time.Millisecond, pr.cap)
		path = append(path, l2)
		dst = "b"
	}
	net.Node(dst).Handle(1, func(*Packet) {})
	if pr.red {
		r := NewRED(pr.cap, sim.NewRand(5))
		r.Weight = 0.5 // follow the instantaneous queue closely enough to drop in a short program
		l1.AttachRED(r)
	}
	if pr.dup {
		l1.SetImpairment(NewDuplication(0.5, sim.NewRand(9))) // extra arrivals at the second hop
	}
	obs := newShadowObs(t, s, net)

	var arm func(i int)
	arm = func(i int) {
		op := pr.ops[i]
		s.At(op.at, func() {
			switch op.kind {
			case occSend:
				p := net.NewPacket()
				p.Flow, p.Size, p.Path = 1, op.arg, path
				net.Send(p)
			case occSetCap:
				l1.SetQueueCap(op.arg)
			case occSetBandwidth:
				l1.SetBandwidth(mbps(float64(op.arg)))
			case occSetDelay:
				l1.SetDelay(time.Duration(op.arg) * 250 * time.Microsecond)
			}
			if i+1 < len(pr.ops) && pr.ops[i+1].late {
				arm(i + 1)
			}
		})
	}
	for i, op := range pr.ops {
		if i == 0 || !op.late {
			arm(i)
		}
	}

	s.RunUntil(pr.pause)
	obs.checkAll(fmt.Sprintf("after RunUntil(%v)", pr.pause))
	stepped := 0
	for stepped+1 < pr.stopAfter && s.Step() {
		stepped++
	}
	obs.checkAll(fmt.Sprintf("after stepping %d events on", stepped))
	s.Run()
	obs.checkAll("after Run")
	for _, l := range net.Links() {
		if st := l.Stats(); l.QueueLen() != 0 || st.Dequeued != st.Enqueued {
			t.Fatalf("%s drained: queue %d, enqueued %d, dequeued %d", l, l.QueueLen(), st.Enqueued, st.Dequeued)
		}
	}
	if sends := countSends(pr.ops); sends > 0 && obs.checks < sends {
		t.Fatalf("%d comparisons for %d sends: the eager model was not consulted", obs.checks, sends)
	}
	return l1, l2
}

func countSends(ops []occOp) (n int) {
	for _, op := range ops {
		if op.kind == occSend {
			n++
		}
	}
	return n
}

const ms = time.Millisecond

// TestLinkOccupancyMatchesEagerDequeue runs hand-written programs through
// the eager model, each with the outcome it exists to pin.
func TestLinkOccupancyMatchesEagerDequeue(t *testing.T) {
	send := func(at sim.Time, late bool) occOp { return occOp{at: at, late: late, kind: occSend, arg: 1000} }
	burst := func(at sim.Time, n int) (ops []occOp) {
		for i := 0; i < n; i++ {
			ops = append(ops, send(at, false))
		}
		return ops
	}
	cases := []struct {
		name string
		pr   occProgram
		want func(t *testing.T, l1, l2 *Link)
	}{
		{
			// The queue's only slot frees at 1 ms. The arrival at 1 ms was
			// scheduled before the first packet was enqueued, so its event
			// sorts before the departure: the queue is still full.
			name: "full queue, same-timestamp arrival keyed before the departure",
			pr:   occProgram{cap: 1, oneHop: true, ops: []occOp{send(0, false), send(ms, false)}, pause: ms / 2, stopAfter: 1},
			want: func(t *testing.T, l1, _ *Link) {
				if st := l1.Stats(); st.Enqueued != 1 || st.Dropped != 1 {
					t.Errorf("enqueued %d dropped %d, want 1 and 1", st.Enqueued, st.Dropped)
				}
			},
		},
		{
			// The same arrival scheduled after the first packet's Enqueue
			// sorts after the departure and finds the slot free.
			name: "full queue, same-timestamp arrival keyed after the departure",
			pr:   occProgram{cap: 1, oneHop: true, ops: []occOp{send(0, false), send(ms, true)}, pause: ms / 2, stopAfter: 1},
			want: func(t *testing.T, l1, _ *Link) {
				if st := l1.Stats(); st.Enqueued != 2 || st.Dropped != 0 || st.MaxQueue != 1 {
					t.Errorf("enqueued %d dropped %d high-water %d, want 2, 0, 1", st.Enqueued, st.Dropped, st.MaxQueue)
				}
			},
		},
		{
			// Four queued, the capacity cut to two at 0.5 ms: arrivals are
			// rejected until two packets have left (2 ms: still three at the
			// early-keyed arrival, two at 3 ms — rejected — one at the
			// late-keyed one).
			name: "SetQueueCap shrink below the occupancy",
			pr: occProgram{cap: 4, ops: append(burst(0, 4),
				occOp{at: ms / 2, kind: occSetCap, arg: 2}, send(2*ms, false), send(3*ms, false), send(3*ms, true)),
				pause: 2 * ms, stopAfter: 3},
			want: func(t *testing.T, l1, _ *Link) {
				if st := l1.Stats(); st.Enqueued != 5 || st.Dropped != 2 || st.MaxQueue != 4 {
					t.Errorf("enqueued %d dropped %d high-water %d, want 5, 2, 4", st.Enqueued, st.Dropped, st.MaxQueue)
				}
			},
		},
		{
			// Queued packets keep their committed departure times across a
			// rate change; later ones serialize at the new rate.
			name: "SetBandwidth mid-run",
			pr: occProgram{cap: 3, ops: append(burst(0, 3),
				occOp{at: ms / 2, kind: occSetBandwidth, arg: 16}, send(ms, true), send(ms, true), send(3*ms+ms/2, false),
				occOp{at: 4 * ms, kind: occSetBandwidth, arg: 4}, send(4*ms, true), send(4*ms, true)),
				pause: 3 * ms, stopAfter: 2},
		},
		{
			// A delay cut makes first-hop packets overtake each other on
			// their way to the second hop, whose arrivals then bunch on one
			// timestamp.
			name: "SetDelay decrease mid-run",
			pr: occProgram{cap: 3, ops: []occOp{{kind: occSetDelay, arg: 8}, send(0, true), send(0, true), send(0, true),
				{at: ms + ms/2, kind: occSetDelay, arg: 0}, send(3*ms, false), send(3*ms, true), send(4*ms, false)},
				pause: 3 * ms, stopAfter: 4},
		},
		{
			name: "RED in front of the drop-tail check",
			pr:   occProgram{cap: 4, red: true, ops: append(append(burst(0, 6), burst(ms, 4)...), burst(2*ms, 4)...), pause: ms, stopAfter: 5},
			want: func(t *testing.T, l1, _ *Link) {
				if st := l1.Stats(); st.REDDropped == 0 || st.Dropped == 0 {
					t.Errorf("RED dropped %d, drop-tail %d: the program must exercise both", st.REDDropped, st.Dropped)
				}
			},
		},
		{
			name: "duplicates add arrivals at the second hop only",
			pr:   occProgram{cap: 3, dup: true, ops: append(burst(0, 3), send(ms, true), send(2*ms, false), send(2*ms, true)), pause: 2 * ms, stopAfter: 2},
			want: func(t *testing.T, l1, l2 *Link) {
				if l1.Stats().Duplicated == 0 || l2.Stats().Enqueued+l2.Stats().Dropped <= l1.Stats().Enqueued {
					t.Errorf("first hop duplicated %d; second hop was offered %d for %d", l1.Stats().Duplicated,
						l2.Stats().Enqueued+l2.Stats().Dropped, l1.Stats().Enqueued)
				}
			},
		},
		{
			// Stopped after the first of two arrivals at 2 ms, in the middle
			// of the timestamp: the departure at 2 ms has fired in the eager
			// model only if its key is behind the clock's.
			name: "reads between runs, mid-serialization and mid-timestamp",
			pr:   occProgram{cap: 4, ops: append(burst(0, 2), send(2*ms, false), send(2*ms, false), send(2*ms, true)), pause: ms + ms/2, stopAfter: 2},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l1, l2 := runOccupancy(t, c.pr)
			if c.want != nil {
				c.want(t, l1, l2)
			}
		})
	}
}

// decodeOccProgram maps fuzz bytes onto a program: a header of three
// bytes (capacity, RED, duplication, hops; pause; stop count) and two bytes
// per op. Every duration is a multiple of a quarter millisecond — the
// serialization time of the smallest packet at the fastest rate — so
// arrivals, departures and setter calls keep landing on shared timestamps.
func decodeOccProgram(data []byte) occProgram {
	var hdr [3]byte
	copy(hdr[:], data)
	pr := occProgram{
		cap:       1 + int(hdr[0]&7),
		red:       hdr[0]&8 != 0,
		dup:       hdr[0]&16 != 0,
		oneHop:    hdr[0]&32 != 0,
		pause:     sim.Time(hdr[1]%64) * 250 * time.Microsecond,
		stopAfter: int(hdr[2] % 64),
	}
	var at sim.Time
	for i := 3; i+1 < len(data) && len(pr.ops) < 128; i += 2 {
		at += sim.Time(data[i+1]&7) * 250 * time.Microsecond
		op := occOp{at: at, late: data[i]&8 != 0, kind: occSend}
		switch k, arg := data[i]&7, int(data[i]>>4); k {
		case 5:
			op.kind, op.arg = occSetCap, 1+arg%8
		case 6:
			op.kind, op.arg = occSetBandwidth, []int{4, 8, 16}[arg%3]
		case 7:
			op.kind, op.arg = occSetDelay, arg%9
		default:
			op.arg = []int{500, 1000, 1500}[arg%3]
		}
		pr.ops = append(pr.ops, op)
	}
	return pr
}

// FuzzLinkQueueOccupancy runs random programs — packet sizes, gaps, queue
// capacity, RED, duplication, setter calls, early- and late-keyed arrivals,
// a pause and a mid-timestamp stop — against the eager model.
func FuzzLinkQueueOccupancy(f *testing.F) {
	// A saturated one-slot queue fed on the serialization grid, early and
	// late, with a capacity change and a rate change on the way.
	f.Add([]byte{0x00, 6, 3, 0x10, 0, 0x10, 4, 0x18, 4, 0x10, 4, 0x25, 2, 0x18, 2, 0x16, 0, 0x10, 4, 0x18, 4, 0x00, 2, 0x08, 2})
	// RED and duplication over two hops, bursts on one timestamp.
	f.Add([]byte{0x1b, 9, 7, 0x10, 0, 0x10, 0, 0x10, 0, 0x18, 0, 0x10, 4, 0x18, 0, 0x10, 0, 0x27, 2, 0x10, 2, 0x18, 0, 0x07, 4, 0x10, 0, 0x18, 4})
	rng := sim.NewRand(3)
	for i := 0; i < 24; i++ {
		p := make([]byte, 3+2*(8+rng.Intn(120)))
		rng.Read(p)
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runOccupancy(t, decodeOccProgram(data)) })
}
