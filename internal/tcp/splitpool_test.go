package tcp_test

import (
	"testing"
	"time"

	"tcppr/internal/netem"
	"tcppr/internal/psim"
	"tcppr/internal/sim"
	"tcppr/internal/tcp"
	"tcppr/internal/topo"
	"tcppr/internal/workload"
)

// boxWatch records, on one shard's network, the payload boxes its impaired
// link dropped and the clones its duplication made. Each shard writes only
// its own watch; the barrier reads both.
type boxWatch struct {
	link    *netem.Link
	dropped map[any]bool
	clones  map[any]bool
}

func (w *boxWatch) PacketSent(*netem.Packet)                                                {}
func (w *boxWatch) PacketEnqueued(*netem.Link, *netem.Packet, sim.Time, sim.Time, sim.Time) {}
func (w *boxWatch) PacketDelivered(*netem.Link, *netem.Packet)                              {}
func (w *boxWatch) PacketRepair(*netem.Link, *netem.Packet, netem.RepairAction, sim.Time)   {}
func (w *boxWatch) PacketDropped(l *netem.Link, p *netem.Packet, _ netem.DropCause) {
	if l == w.link {
		w.dropped[p.Payload] = true
	}
}
func (w *boxWatch) PacketDuplicated(l *netem.Link, _, dup *netem.Packet, _, _ sim.Time) {
	if l == w.link {
		w.clones[dup.Payload] = true
	}
}

// barrierCheck is the engine observer that audits the flow's box lists at
// every barrier, after the exchange has handed the spent boxes back.
type barrierCheck struct {
	t       *testing.T
	flow    *tcp.Flow
	watches []*boxWatch
	reused  int // barriers at which a clone sat on a list
}

func (c *barrierCheck) WindowStart(int, sim.Time, sim.Time)                             {}
func (c *barrierCheck) ShardWindow(int, int, uint64, int, time.Duration, time.Duration) {}
func (c *barrierCheck) WindowEnd(window int, _ sim.Time, _ int, _ time.Duration) {
	boxes, poisoned := c.flow.PooledBoxes()
	seen := make(map[any]bool, len(boxes))
	clone := false
	for i, b := range boxes {
		if seen[b] {
			c.t.Fatalf("window %d: a %T box is on the flow's lists twice", window, b)
		}
		seen[b] = true
		if !poisoned[i] {
			c.t.Fatalf("window %d: a %T box waits for reuse without the poison mark", window, b)
		}
		for _, w := range c.watches {
			if w.dropped[b] {
				c.t.Fatalf("window %d: a %T box dropped on %s came back", window, b, w.link.Name)
			}
			clone = clone || w.clones[b]
		}
	}
	if clone {
		c.reused++
	}
}

// TestSplitFlowBoxOwnership drives a flow split across two shards through
// a lossy, duplicating last hop on each side: data segments are dropped and
// duplicated on the destination shard, ACKs on the source shard. At every
// barrier the flow's free and spent lists hold no box twice (a duplicate
// carries its ClonePayload box, and each copy returns at most once), no box
// a drop lost, and only poisoned boxes: a packet that still carried a box
// on those lists would hit the poison when it arrived, and panic.
func TestSplitFlowBoxOwnership(t *testing.T) {
	defer tcp.SetDebugPool(true)()
	bp := topo.NewCity(topo.CityConfig{Districts: 2, HostsPerDistrict: 1})
	eng := psim.NewEngine(bp, topo.PartitionBlueprint(bp, 2, 1), 1)
	src, dst := topo.CityHost(0, 0), topo.CityHost(1, 0)
	r0, r1 := topo.CityRouter(0), topo.CityRouter(1)
	f := eng.NewFlow(1, src, dst, eng.Route(1, src, r0, r1, dst), eng.Route(1, dst, r1, r0, src))
	f.Attach(workload.Factory(workload.TCPSACK, workload.PRParams{}))
	f.Start(0)

	check := &barrierCheck{t: t, flow: f}
	for i, hop := range [][2]string{{r1, dst}, {r0, src}} {
		sh, _ := eng.Node(hop[1])
		l := sh.Net.FindLink(hop[0], hop[1])
		l.SetLoss(0.02, sim.NewRand(int64(10+i)))
		l.SetImpairment(netem.NewDuplication(0.02, sim.NewRand(int64(20+i))))
		w := &boxWatch{link: l, dropped: map[any]bool{}, clones: map[any]bool{}}
		sh.Net.Observe(w)
		check.watches = append(check.watches, w)
	}
	eng.SetObserver(check)
	eng.Run(sim.Time(2 * time.Second))

	for _, w := range check.watches {
		if len(w.dropped) == 0 || len(w.clones) == 0 {
			t.Fatalf("%s dropped %d and duplicated %d boxes: the run did not exercise both", w.link.Name, len(w.dropped), len(w.clones))
		}
	}
	t.Logf("dropped %d/%d, cloned %d/%d boxes; clones pooled at %d barriers; %d bytes delivered",
		len(check.watches[0].dropped), len(check.watches[1].dropped), len(check.watches[0].clones), len(check.watches[1].clones), check.reused, f.UniqueBytes())
	if check.reused == 0 {
		t.Error("no duplicate's clone ever joined the pool")
	}
	if f.UniqueBytes() == 0 {
		t.Error("the flow delivered nothing")
	}
}
