package netem

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"tcppr/internal/sim"
)

// Fuzz harness parameters: a deliberately starved box so every policy
// branch (hold, drain, dup, retx, flow-cap and global-cap overflow, LRU
// eviction, idle eviction, gap timeout, final flush) is reachable within
// a short op program. The hold timeout sits 100µs off the offer grid —
// offers land at whole-ms + 1.8ms (0.8ms serialization + 1ms propagation)
// and deadlines therefore at +1.9ms — so a timer fire can never tie with
// an offer and the reference model needs no scheduler tie-breaking rules.
const (
	fuzzMaxFlows    = 3
	fuzzFlowCap     = 4
	fuzzGlobalCap   = 6
	fuzzHoldTimeout = 12*time.Millisecond + 100*time.Microsecond
	fuzzIdleTimeout = 50 * time.Millisecond
)

// fuzzOp is one decoded program step: wait `step` milliseconds, then send
// (flow, seq) through the link.
type fuzzOp struct {
	step time.Duration
	flow int
	seq  int64
}

// decodeRepairProgram maps raw fuzz bytes onto (policy, ops): byte 0
// selects the overflow policy, then each 3-byte group is one send.
func decodeRepairProgram(data []byte) (RepairOverflow, []fuzzOp) {
	policy := RepairForward
	if len(data) > 0 && data[0]&1 == 1 {
		policy = RepairDrop
	}
	var ops []fuzzOp
	for i := 1; i+2 < len(data) && len(ops) < 256; i += 3 {
		ops = append(ops, fuzzOp{
			step: time.Duration(1+int(data[i])%5) * time.Millisecond,
			flow: 1 + int(data[i+1])%4,
			seq:  int64(data[i+2] % 32),
		})
	}
	return policy, ops
}

// refRepairFlow is the reference model's per-flow state: next expected
// sequence, the held packets as a plain map (flushed by sorting its
// keys), and idle bookkeeping.
type refRepairFlow struct {
	id         int
	expected   int64
	held       map[int64]sim.Time // seq -> heldAt
	lastActive sim.Time
}

// refRepair is the trivial reference model of RepairBox built from a map
// per flow plus sort at release time — no pooling, no intrusive lists, no
// shared timer. It mirrors the box's documented decision order exactly;
// FuzzRepairBuffer cross-checks per-flow delivery order and the drop set.
type refRepair struct {
	overflow RepairOverflow
	flows    map[int]*refRepairFlow
	lru      []*refRepairFlow // front = most recently active
	heldNow  int

	delivered map[int][]int64 // per-flow delivery order
	dropped   map[int][]int64 // per-flow overflow drops, in drop order
}

func newRefRepair(overflow RepairOverflow) *refRepair {
	return &refRepair{
		overflow:  overflow,
		flows:     make(map[int]*refRepairFlow),
		delivered: make(map[int][]int64),
		dropped:   make(map[int][]int64),
	}
}

func (r *refRepair) deliver(flow int, seq int64) {
	r.delivered[flow] = append(r.delivered[flow], seq)
}

// sortedHeld returns a flow's held sequences in ascending order.
func sortedHeld(f *refRepairFlow) []int64 {
	seqs := make([]int64, 0, len(f.held))
	for s := range f.held {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs
}

// flushFlow releases a flow's buffer in sequence order; advance mirrors
// the box's timeout semantics (the stream resumes past the flushed run).
func (r *refRepair) flushFlow(f *refRepairFlow, advance bool) {
	for _, s := range sortedHeld(f) {
		if advance && s >= f.expected {
			f.expected = s + 1
		}
		r.deliver(f.id, s)
		delete(f.held, s)
		r.heldNow--
	}
}

// gapDeadline returns when a flow's stalled gap times out (0 if no hold).
func (f *refRepairFlow) gapDeadline() sim.Time {
	if len(f.held) == 0 {
		return 0
	}
	var min sim.Time
	for _, at := range f.held {
		if min == 0 || at < min {
			min = at
		}
	}
	return min + sim.Time(fuzzHoldTimeout)
}

// fireTimeouts flushes every flow whose gap deadline has passed, exactly
// as the box's shared timer does: repeatedly take the earliest pending
// deadline <= limit and flush all expired flows in LRU order at that
// instant.
func (r *refRepair) fireTimeouts(limit sim.Time) {
	for {
		var next sim.Time
		for _, f := range r.lru {
			if dl := f.gapDeadline(); dl != 0 && (next == 0 || dl < next) {
				next = dl
			}
		}
		if next == 0 || next > limit {
			return
		}
		for _, f := range r.lru {
			if dl := f.gapDeadline(); dl != 0 && dl <= next {
				r.flushFlow(f, true)
			}
		}
	}
}

// lruRemove drops a flow from the recency list.
func (r *refRepair) lruRemove(f *refRepairFlow) {
	for i, g := range r.lru {
		if g == f {
			r.lru = append(r.lru[:i], r.lru[i+1:]...)
			return
		}
	}
}

// evictIdle trims empty long-idle flows from the cold end, mirroring the
// box's lazy per-offer sweep.
func (r *refRepair) evictIdle(now sim.Time) {
	for len(r.lru) > 0 {
		t := r.lru[len(r.lru)-1]
		if len(t.held) != 0 || now-t.lastActive < sim.Time(fuzzIdleTimeout) {
			return
		}
		r.lru = r.lru[:len(r.lru)-1]
		delete(r.flows, t.id)
	}
}

// offer mirrors RepairBox.offer's decision order: idle sweep, anchor,
// in-order drain, retx, dup, caps, hold.
func (r *refRepair) offer(flow int, seq int64, now sim.Time) {
	r.evictIdle(now)
	f := r.flows[flow]
	if f == nil {
		if len(r.flows) >= fuzzMaxFlows {
			t := r.lru[len(r.lru)-1]
			r.flushFlow(t, false)
			r.lruRemove(t)
			delete(r.flows, t.id)
		}
		f = &refRepairFlow{id: flow, expected: seq + 1, held: make(map[int64]sim.Time), lastActive: now}
		r.flows[flow] = f
		r.lru = append([]*refRepairFlow{f}, r.lru...)
		r.deliver(flow, seq)
		return
	}
	f.lastActive = now
	r.lruRemove(f)
	r.lru = append([]*refRepairFlow{f}, r.lru...)
	switch {
	case seq == f.expected:
		f.expected++
		r.deliver(flow, seq)
		for {
			if _, ok := f.held[f.expected]; !ok {
				break
			}
			r.deliver(flow, f.expected)
			delete(f.held, f.expected)
			r.heldNow--
			f.expected++
		}
	case seq < f.expected:
		r.deliver(flow, seq) // retransmission passthrough
	default:
		if _, dup := f.held[seq]; dup {
			r.deliver(flow, seq) // duplicate of a held packet
			return
		}
		if len(f.held) >= fuzzFlowCap || r.heldNow >= fuzzGlobalCap {
			if r.overflow == RepairDrop {
				r.dropped[flow] = append(r.dropped[flow], seq)
				return
			}
			r.deliver(flow, seq)
			return
		}
		f.held[seq] = now
		r.heldNow++
	}
}

// flushAll mirrors RepairBox.Flush: LRU order across flows, sequence
// order within each.
func (r *refRepair) flushAll() {
	for _, f := range r.lru {
		r.flushFlow(f, false)
	}
	r.lru = nil
	r.flows = make(map[int]*refRepairFlow)
}

// FuzzRepairBuffer drives an identical op program through the real
// RepairBox (behind a one-hop link, real scheduler, real pooled packets)
// and through the trivial map/sort reference model, then cross-checks
// per-flow delivery order, the overflow-drop set, packet conservation,
// and the custody ledger. The link's fixed 1.8ms pipe delay makes every
// offer time a pure function of the program, so the reference needs no
// knowledge of the scheduler.
func FuzzRepairBuffer(f *testing.F) {
	// policy byte, then (step, flow, seq) triples.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 2, 0, 0, 2, 0, 0, 1})                     // dup of a held packet
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 0, 0, 2, 0, 0, 0, 0, 0, 3})            // retransmission passthrough
	f.Add([]byte{1, 0, 0, 5, 0, 1, 9, 0, 2, 13, 0, 0, 7, 0, 3, 11, 0, 1, 2}) // eviction under flow pressure, drop policy
	f.Add([]byte{0, 0, 0, 0, 0, 0, 2, 4, 0, 3, 4, 0, 4, 4, 0, 5, 0, 0, 6})   // gap stalls past the hold timeout
	f.Fuzz(func(t *testing.T, data []byte) {
		policy, ops := decodeRepairProgram(data)
		if len(ops) == 0 {
			return
		}

		// Real run: scripted sends through a one-hop link with the box on
		// delivery. Sends are spaced >= 1ms apart (> 0.8ms serialization),
		// so the link never queues and every offer happens at exactly
		// sendAt + 1.8ms.
		s := sim.NewScheduler()
		net := NewNetwork(s)
		l := net.AddLink("a", "b", 10_000_000, time.Millisecond, len(ops)+10)
		box := NewRepairBox(RepairConfig{
			MaxFlows: fuzzMaxFlows, FlowCap: fuzzFlowCap, GlobalCap: fuzzGlobalCap,
			HoldTimeout: fuzzHoldTimeout, IdleTimeout: fuzzIdleTimeout, Overflow: policy,
		})
		l.SetRepair(box)

		gotDelivered := make(map[int][]int64)
		gotDropped := make(map[int][]int64)
		for fl := 1; fl <= 4; fl++ {
			fl := fl
			net.Node("b").Handle(fl, func(p *Packet) {
				gotDelivered[fl] = append(gotDelivered[fl], p.Payload.(SequencedPayload).RepairSeq())
			})
		}
		net.Observe(funcObs(func(kind string, _ *Link, p *Packet) {
			if kind == "drop" {
				gotDropped[p.Flow] = append(gotDropped[p.Flow], p.Payload.(SequencedPayload).RepairSeq())
			}
		}))

		sent := make(map[int]int)
		var cursor time.Duration
		for _, op := range ops {
			cursor += op.step
			op := op
			s.At(sim.Time(cursor), func() {
				p := net.NewPacket()
				p.Flow, p.Size, p.Path = op.flow, 1000, []*Link{l}
				p.Payload = repairSeg{seq: op.seq}
				if !net.Send(p) {
					t.Fatal("send rejected")
				}
			})
			sent[op.flow]++
		}
		// Stop past the last offer but before any later gap timeout, so
		// Flush (not the timer) closes whatever custody remains.
		horizon := sim.Time(cursor + 2*time.Millisecond)
		s.RunUntil(horizon)
		box.Flush()

		// Reference run over the same offer schedule.
		ref := newRefRepair(policy)
		var rcursor time.Duration
		for _, op := range ops {
			rcursor += op.step
			at := sim.Time(rcursor + 1800*time.Microsecond)
			ref.fireTimeouts(at) // deadlines never tie with offers (grid offset)
			ref.offer(op.flow, op.seq, at)
		}
		ref.fireTimeouts(horizon)
		ref.flushAll()

		// Cross-check: per-flow delivery order, drop sets, conservation.
		for fl := 1; fl <= 4; fl++ {
			if got, want := fmt.Sprint(gotDelivered[fl]), fmt.Sprint(ref.delivered[fl]); got != want {
				t.Errorf("flow %d delivery order:\n real %s\n  ref %s", fl, got, want)
			}
			if got, want := fmt.Sprint(gotDropped[fl]), fmt.Sprint(ref.dropped[fl]); got != want {
				t.Errorf("flow %d drop set:\n real %s\n  ref %s", fl, got, want)
			}
			if n := len(gotDelivered[fl]) + len(gotDropped[fl]); n != sent[fl] {
				t.Errorf("flow %d conservation: %d delivered + %d dropped != %d sent",
					fl, len(gotDelivered[fl]), len(gotDropped[fl]), sent[fl])
			}
		}

		// Ledger closure after Flush.
		st := box.Stats()
		if st.Held != st.Released || box.HeldNow() != 0 {
			t.Errorf("ledger open after flush: held %d released %d now %d",
				st.Held, st.Released, box.HeldNow())
		}
		if l.RepairHeldNow() != 0 {
			t.Errorf("link custody %d after flush", l.RepairHeldNow())
		}
		ls := l.Stats()
		if ls.RepairHeld != st.Held || ls.RepairReleased != st.Released {
			t.Errorf("link ledger (%d/%d) != box ledger (%d/%d)",
				ls.RepairHeld, ls.RepairReleased, st.Held, st.Released)
		}
	})
}
