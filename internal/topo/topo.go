// Package topo builds the three evaluation topologies of the paper:
//
//   - Dumbbell: the single-bottleneck topology of §4 (Fig 2–4 left plots).
//   - ParkingLot: the multi-bottleneck chain of Fig 1, with the paper's
//     exact access bandwidths and cross-traffic endpoints.
//   - Multipath: the Fig 5 comparison topology — disjoint parallel paths
//     of increasing hop count, every link 10 Mbps with 100-packet queues.
//
// All builders return the constructed Network plus named handles for the
// nodes and paths experiments need.
package topo

import (
	"fmt"
	"time"

	"tcppr/internal/netem"
	"tcppr/internal/sim"
)

// Mbps converts megabits/second into the bits/second netem uses.
func Mbps(m float64) int64 { return int64(m * 1e6) }

// DefaultQueue is the ns-2 style drop-tail queue capacity used throughout
// the paper (packets).
const DefaultQueue = 100

// Dumbbell is the classic single-bottleneck topology: n sources on the
// left, n sinks on the right, all flows crossing one shared link.
type Dumbbell struct {
	Net *netem.Network
	// Left and Right are the bottleneck endpoints.
	Left, Right *netem.Node
	// Bottleneck is the left→right direction of the shared link.
	Bottleneck *netem.Link
}

// DumbbellConfig parameterizes NewDumbbell. Zero values select a 15 Mbps
// bottleneck and 100-packet queues. The bottleneck delay (20 ms) and the
// access links (100 Mbps / 2 ms) are fixed.
type DumbbellConfig struct {
	Hosts        int // number of source/sink pairs (required)
	BottleneckBW int64
	Queue        int
}

// Fixed dumbbell link parameters.
const (
	dumbbellBottleneckDelay = 20 * time.Millisecond
	dumbbellAccessDelay     = 2 * time.Millisecond
)

func (c *DumbbellConfig) fill() {
	if c.Hosts <= 0 {
		panic("topo: DumbbellConfig.Hosts must be positive")
	}
	if c.BottleneckBW == 0 {
		c.BottleneckBW = Mbps(15)
	}
	if c.Queue == 0 {
		c.Queue = DefaultQueue
	}
}

// NewDumbbell builds a dumbbell on a fresh scheduler.
func NewDumbbell(sched *sim.Scheduler, cfg DumbbellConfig) *Dumbbell {
	cfg.fill()
	net := netem.NewNetwork(sched)
	d := &Dumbbell{Net: net}
	d.Left = net.Node("L")
	d.Right = net.Node("R")
	fwd, _ := net.AddDuplex("L", "R", cfg.BottleneckBW, dumbbellBottleneckDelay, cfg.Queue)
	d.Bottleneck = fwd
	for i := 0; i < cfg.Hosts; i++ {
		net.AddDuplex(fmt.Sprintf("s%d", i), "L", Mbps(100), dumbbellAccessDelay, cfg.Queue)
		net.AddDuplex("R", fmt.Sprintf("d%d", i), Mbps(100), dumbbellAccessDelay, cfg.Queue)
	}
	return d
}

// Src returns source host i.
func (d *Dumbbell) Src(i int) *netem.Node { return d.Net.Node(fmt.Sprintf("s%d", i)) }

// Dst returns sink host i.
func (d *Dumbbell) Dst(i int) *netem.Node { return d.Net.Node(fmt.Sprintf("d%d", i)) }

// FwdPath returns the source route s_i → L → R → d_i.
func (d *Dumbbell) FwdPath(i int) []*netem.Link {
	return []*netem.Link{
		d.Net.FindLink(fmt.Sprintf("s%d", i), "L"),
		d.Net.FindLink("L", "R"),
		d.Net.FindLink("R", fmt.Sprintf("d%d", i)),
	}
}

// RevPath returns the reverse route d_i → R → L → s_i.
func (d *Dumbbell) RevPath(i int) []*netem.Link {
	return []*netem.Link{
		d.Net.FindLink(fmt.Sprintf("d%d", i), "R"),
		d.Net.FindLink("R", "L"),
		d.Net.FindLink("L", fmt.Sprintf("s%d", i)),
	}
}

// ParkingLot is the Fig 1 topology: a four-router chain 1–2–3–4 whose
// three inner links are all bottlenecks, a main flow path S→1→2→3→4→D,
// and cross-traffic endpoints CS1..CS3 / CD1..CD3 with the paper's access
// bandwidths (CS1→1 = 5 Mbps, CS2→2 = 1.66 Mbps, CS3→3 = 2.5 Mbps, all
// other links 15 Mbps).
type ParkingLot struct {
	Net *netem.Network
	// Hosts is the number of main S/D host pairs attached.
	Hosts int
}

// CrossPair names one cross-traffic connection of Fig 1.
type CrossPair struct{ Src, Dst string }

// CrossPairs lists the paper's six cross-traffic connections:
// CS1→CD1, CS1→CD2, CS1→CD3, CS2→CD2, CS2→CD3, CS3→CD3.
func CrossPairs() []CrossPair {
	return []CrossPair{
		{"CS1", "CD1"}, {"CS1", "CD2"}, {"CS1", "CD3"},
		{"CS2", "CD2"}, {"CS2", "CD3"}, {"CS3", "CD3"},
	}
}

// NewParkingLot builds the Fig 1 topology with hosts main source/sink
// pairs attached at router 1 and router 4. delay is the per-link
// propagation delay (the paper does not pin it; 10 ms is our default when
// zero is passed).
func NewParkingLot(sched *sim.Scheduler, hosts int, delay time.Duration) *ParkingLot {
	if hosts <= 0 {
		panic("topo: NewParkingLot requires at least one host pair")
	}
	if delay == 0 {
		delay = 10 * time.Millisecond
	}
	net := netem.NewNetwork(sched)
	q := DefaultQueue
	// Router chain: the three inner links are the bottlenecks.
	net.AddDuplex("r1", "r2", Mbps(15), delay, q)
	net.AddDuplex("r2", "r3", Mbps(15), delay, q)
	net.AddDuplex("r3", "r4", Mbps(15), delay, q)
	// Cross-traffic access links with the paper's bandwidths.
	net.AddDuplex("CS1", "r1", Mbps(5), delay, q)
	net.AddDuplex("CS2", "r2", Mbps(1.66), delay, q)
	net.AddDuplex("CS3", "r3", Mbps(2.5), delay, q)
	net.AddDuplex("r2", "CD1", Mbps(15), delay, q)
	net.AddDuplex("r3", "CD2", Mbps(15), delay, q)
	net.AddDuplex("r4", "CD3", Mbps(15), delay, q)
	// Main host pairs.
	for i := 0; i < hosts; i++ {
		net.AddDuplex(fmt.Sprintf("S%d", i), "r1", Mbps(15), delay, q)
		net.AddDuplex("r4", fmt.Sprintf("D%d", i), Mbps(15), delay, q)
	}
	return &ParkingLot{Net: net, Hosts: hosts}
}

// pathVia assembles a source route through the named nodes.
func pathVia(net *netem.Network, names ...string) []*netem.Link {
	path := make([]*netem.Link, 0, len(names)-1)
	for i := 0; i+1 < len(names); i++ {
		l := net.FindLink(names[i], names[i+1])
		if l == nil {
			panic(fmt.Sprintf("topo: no link %s->%s", names[i], names[i+1]))
		}
		path = append(path, l)
	}
	return path
}

// MainFwd returns host pair i's forward route S_i→r1→r2→r3→r4→D_i.
func (p *ParkingLot) MainFwd(i int) []*netem.Link {
	return pathVia(p.Net, fmt.Sprintf("S%d", i), "r1", "r2", "r3", "r4", fmt.Sprintf("D%d", i))
}

// MainRev returns host pair i's reverse route.
func (p *ParkingLot) MainRev(i int) []*netem.Link {
	return pathVia(p.Net, fmt.Sprintf("D%d", i), "r4", "r3", "r2", "r1", fmt.Sprintf("S%d", i))
}

// CrossFwd returns the forward route for a Fig 1 cross connection.
func (p *ParkingLot) CrossFwd(c CrossPair) []*netem.Link {
	return pathVia(p.Net, c.crossNames()...)
}

// CrossRev returns the reverse route for a Fig 1 cross connection.
func (p *ParkingLot) CrossRev(c CrossPair) []*netem.Link {
	names := c.crossNames()
	rev := make([]string, len(names))
	for i, n := range names {
		rev[len(names)-1-i] = n
	}
	return pathVia(p.Net, rev...)
}

// crossNames maps a cross pair to its router-hop node sequence. CSi
// enters at router i; CDj exits at router j+1.
func (c CrossPair) crossNames() []string {
	entry := map[string]int{"CS1": 1, "CS2": 2, "CS3": 3}[c.Src]
	exit := map[string]int{"CD1": 2, "CD2": 3, "CD3": 4}[c.Dst]
	if entry == 0 || exit == 0 {
		panic(fmt.Sprintf("topo: unknown cross pair %s->%s", c.Src, c.Dst))
	}
	names := []string{c.Src}
	for r := entry; r <= exit; r++ {
		names = append(names, fmt.Sprintf("r%d", r))
	}
	return append(names, c.Dst)
}

// Src returns main source host i.
func (p *ParkingLot) Src(i int) *netem.Node { return p.Net.Node(fmt.Sprintf("S%d", i)) }

// Dst returns main sink host i.
func (p *ParkingLot) Dst(i int) *netem.Node { return p.Net.Node(fmt.Sprintf("D%d", i)) }

// Multipath is the Fig 5 comparison topology: NumPaths disjoint
// source→destination paths with increasing hop counts (2, 3, 4, ... hops),
// every link 10 Mbps with a 100-packet queue and equal per-link delay.
// With 3 paths and uniform per-packet splitting (ε = 0) the aggregate
// capacity is ~30 Mbps, matching the scale of the paper's left plot.
type Multipath struct {
	Net      *netem.Network
	Src, Dst *netem.Node
	// FwdPaths and RevPaths hold the candidate routes, shortest first.
	FwdPaths [][]*netem.Link
	RevPaths [][]*netem.Link
}

// NewMultipath builds the Fig 5 topology. delay is the per-link
// propagation delay (the paper uses 10 ms and 60 ms); numPaths defaults
// to 3 when zero.
func NewMultipath(sched *sim.Scheduler, numPaths int, delay time.Duration) *Multipath {
	if numPaths == 0 {
		numPaths = 3
	}
	if numPaths < 1 {
		panic("topo: NewMultipath requires at least one path")
	}
	if delay <= 0 {
		panic("topo: NewMultipath requires a positive per-link delay")
	}
	net := netem.NewNetwork(sched)
	bw := Mbps(10)
	q := DefaultQueue
	m := &Multipath{Net: net, Src: net.Node("src"), Dst: net.Node("dst")}
	for p := 0; p < numPaths; p++ {
		hops := p + 2 // shortest path has 2 hops
		names := []string{"src"}
		for h := 1; h < hops; h++ {
			names = append(names, fmt.Sprintf("p%dn%d", p, h))
		}
		names = append(names, "dst")
		for i := 0; i+1 < len(names); i++ {
			net.AddDuplex(names[i], names[i+1], bw, delay, q)
		}
		m.FwdPaths = append(m.FwdPaths, pathVia(net, names...))
		rev := make([]string, len(names))
		for i, n := range names {
			rev[len(names)-1-i] = n
		}
		m.RevPaths = append(m.RevPaths, pathVia(net, rev...))
	}
	return m
}
