package netem

import (
	"fmt"
	"os"
	"time"

	"tcppr/internal/sim"
)

// debugPoolEnv turns on pool-ownership checking for every new Network when
// TCPPR_DEBUG_POOL is set in the environment; SetDebugPool overrides it per
// network.
var debugPoolEnv = os.Getenv("TCPPR_DEBUG_POOL") != ""

// Network owns the nodes and links of one simulated topology and issues
// packet IDs. All elements share a single sim.Scheduler.
//
// The Network also owns the packet free list. Packets obtained from
// NewPacket are recycled automatically when they leave the network —
// dropped at enqueue, discarded as corrupt, or consumed by (or past) the
// destination's local handler. The pool is an ownership contract, not just
// an optimization: once a packet is handed to Send, the network owns it,
// and delivery hooks and handlers must not retain the pointer beyond their
// synchronous call.
type Network struct {
	sched     *sim.Scheduler
	nodes     map[string]*Node
	links     []*Link
	linkIdx   map[linkKey]*Link
	nextID    uint64
	nextTrace uint64
	free      []*Packet
	debugPool bool
	obs       []Observer
}

type linkKey struct{ from, to string }

// NewNetwork creates an empty topology bound to the given scheduler.
func NewNetwork(sched *sim.Scheduler) *Network {
	return &Network{
		sched:     sched,
		nodes:     make(map[string]*Node),
		linkIdx:   make(map[linkKey]*Link),
		debugPool: debugPoolEnv,
	}
}

// SetDebugPool enables (or disables) pool-ownership checking: recycling a
// packet that is already on the free list panics instead of silently
// corrupting the pool. The check is a single branch on the release path; it
// defaults to the value of the TCPPR_DEBUG_POOL environment variable.
func (n *Network) SetDebugPool(on bool) { n.debugPool = on }

// Scheduler returns the scheduler shared by all elements of this network.
func (n *Network) Scheduler() *sim.Scheduler { return n.sched }

// Node returns the named node, creating it on first use.
func (n *Network) Node(name string) *Node {
	if nd, ok := n.nodes[name]; ok {
		return nd
	}
	nd := &Node{Name: name, net: n}
	n.nodes[name] = nd
	return nd
}

// NewPacket returns a zeroed packet, reusing a recycled one when the free
// list is non-empty. In steady state every transport send reuses the slot
// freed by an earlier delivery, so forwarding allocates no packets.
func (n *Network) NewPacket() *Packet {
	if k := len(n.free); k > 0 {
		p := n.free[k-1]
		n.free = n.free[:k-1]
		p.pooled = false
		return p
	}
	return &Packet{}
}

// release returns a packet to the free list. The struct is zeroed so a
// stale pointer held in error reads as an empty packet rather than as the
// slot's next occupant's old identity. Packets built by hand (tests) join
// the pool too — the pool doesn't care where a packet was born.
func (n *Network) release(p *Packet) {
	if n.debugPool && p.pooled {
		panic(fmt.Sprintf("netem: double release of packet id=%d flow=%d", p.ID, p.Flow))
	}
	*p = Packet{}
	p.pooled = true // after zeroing: the flag must survive on the free list
	n.free = append(n.free, p)
}

// newTraceID issues a fresh causal trace ID (link duplication uses it to
// give the extra copy an identity of its own).
func (n *Network) newTraceID() uint64 {
	n.nextTrace++
	return n.nextTrace
}

// Nodes returns the number of nodes created so far.
func (n *Network) Nodes() int { return len(n.nodes) }

// Links returns all links in creation order.
func (n *Network) Links() []*Link { return n.links }

// AddLink creates a unidirectional link between two (auto-created) nodes.
func (n *Network) AddLink(from, to string, bandwidth int64, delay time.Duration, queueCap int) *Link {
	if bandwidth <= 0 {
		panic(fmt.Sprintf("netem: link %s->%s has non-positive bandwidth %d", from, to, bandwidth))
	}
	if queueCap <= 0 {
		panic(fmt.Sprintf("netem: link %s->%s has non-positive queue capacity %d", from, to, queueCap))
	}
	l := &Link{
		Name:      from + "->" + to,
		From:      n.Node(from),
		To:        n.Node(to),
		Bandwidth: bandwidth,
		Delay:     delay,
		QueueCap:  queueCap,
		sched:     n.sched,
		net:       n,
		obs:       n.obs,
	}
	n.links = append(n.links, l)
	n.linkIdx[linkKey{from, to}] = l
	return l
}

// AddDuplex creates a symmetric pair of unidirectional links and returns
// (forward, reverse).
func (n *Network) AddDuplex(a, b string, bandwidth int64, delay time.Duration, queueCap int) (*Link, *Link) {
	return n.AddLink(a, b, bandwidth, delay, queueCap), n.AddLink(b, a, bandwidth, delay, queueCap)
}

// FindLink returns the link from one named node to another, or nil. The
// lookup is indexed: topology builders at city scale resolve hundreds of
// thousands of routes, so a scan over the link slice is not an option.
func (n *Network) FindLink(from, to string) *Link {
	return n.linkIdx[linkKey{from, to}]
}

// Inject hands a packet directly to a node, as if it had just crossed an
// incoming link: packets with a remaining source route are forwarded,
// others go to the local flow handler, and either way the network recycles
// the packet afterwards. It is the cross-scheduler seam the parallel
// engine (internal/psim) uses to deliver a packet whose journey ended at a
// shard boundary one hop short of its destination node.
func (n *Network) Inject(node *Node, p *Packet) {
	node.receive(p)
}

// Send injects a packet at the head of its source route. The route must be
// non-empty and contiguous. It returns false if the first hop dropped the
// packet.
func (n *Network) Send(p *Packet) bool {
	if len(p.Path) == 0 {
		panic("netem: Send with empty path")
	}
	for i := 1; i < len(p.Path); i++ {
		if p.Path[i].From != p.Path[i-1].To {
			panic(fmt.Sprintf("netem: discontiguous path at hop %d (%s then %s)",
				i, p.Path[i-1], p.Path[i]))
		}
	}
	p.ID = n.nextID
	n.nextID++
	n.nextTrace++
	p.Trace = n.nextTrace
	p.SentAt = n.sched.Now()
	for _, o := range n.obs {
		o.PacketSent(p)
	}
	if !p.Path[0].Enqueue(p) {
		n.release(p)
		return false
	}
	return true
}

// TotalDrops sums queue drops (drop-tail and RED) across every link.
func (n *Network) TotalDrops() uint64 {
	var d uint64
	for _, l := range n.links {
		st := l.Stats()
		d += st.Dropped + st.REDDropped
	}
	return d
}

// PathDelay returns the total propagation delay along a path. It ignores
// queueing and serialization, so it is the zero-load lower bound used by
// the ε-multipath router's path weights.
func PathDelay(path []*Link) time.Duration {
	var d time.Duration
	for _, l := range path {
		d += l.Delay
	}
	return d
}

// PathNames formats a path as "a->b->c" for traces and tests.
func PathNames(path []*Link) string {
	if len(path) == 0 {
		return ""
	}
	s := path[0].From.Name
	for _, l := range path {
		s += "->" + l.To.Name
	}
	return s
}
