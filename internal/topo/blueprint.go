package topo

import (
	"fmt"
	"time"

	"tcppr/internal/sim"
)

// Blueprint is a declarative topology: named nodes grouped into districts
// plus directed links. Unlike the builders above, a Blueprint is not bound
// to a scheduler or a netem.Network — it is the unit the partitioner cuts
// into shards, and each shard instantiates only its own slice of the
// blueprint on its own scheduler (see internal/psim). Districts are the
// atomic placement unit: the partitioner never splits a district, so any
// traffic wired strictly within one district is shard-local by
// construction.
type Blueprint struct {
	Nodes []BNode
	Links []BLink
}

// BNode is one blueprint node.
type BNode struct {
	Name string
	// District groups nodes that must land on the same shard. Densely
	// numbered from 0.
	District int
}

// BLink is one directed blueprint link.
type BLink struct {
	From, To string
	BW       int64
	Delay    time.Duration
	Queue    int
}

// AddNode appends a node to the blueprint.
func (b *Blueprint) AddNode(name string, district int) {
	b.Nodes = append(b.Nodes, BNode{Name: name, District: district})
}

// AddDuplex appends a symmetric pair of directed links.
func (b *Blueprint) AddDuplex(a, z string, bw int64, delay time.Duration, queue int) {
	b.Links = append(b.Links,
		BLink{From: a, To: z, BW: bw, Delay: delay, Queue: queue},
		BLink{From: z, To: a, BW: bw, Delay: delay, Queue: queue})
}

// Districts returns the number of districts (max district index + 1).
func (b *Blueprint) Districts() int {
	n := 0
	for _, nd := range b.Nodes {
		if nd.District+1 > n {
			n = nd.District + 1
		}
	}
	return n
}

// Partition maps every blueprint node to a shard and identifies the cut:
// the links whose endpoints landed on different shards. Cut links are the
// shard-coupling surface of the conservative parallel engine — their
// minimum propagation delay is the lookahead, the window by which every
// shard may safely run ahead of its neighbours.
type Partition struct {
	// Shards is the shard count the partition was built for.
	Shards int

	shardOf map[string]int
	nodes   [][]string // per shard, in blueprint order
	cuts    []int      // indices into Blueprint.Links
	lookahd time.Duration
}

// PartitionBlueprint assigns districts to shards as contiguous blocks
// (rotated by a seed-derived offset, so distinct seeds explore distinct
// placements while the same seed always reproduces the same cut) and
// derives the cut set. It panics when the partition cannot support
// conservative synchronization: more shards than districts, or a cut link
// with zero propagation delay (which would collapse the lookahead to
// nothing).
func PartitionBlueprint(bp Blueprint, shards int, seed int64) Partition {
	d := bp.Districts()
	if shards < 1 {
		panic("topo: PartitionBlueprint requires at least one shard")
	}
	if shards > d {
		panic(fmt.Sprintf("topo: cannot cut %d district(s) into %d shards", d, shards))
	}
	rot := int(uint64(sim.SplitSeed(seed, 0x9a27)) % uint64(d))
	districtShard := make([]int, d)
	for i := 0; i < d; i++ {
		districtShard[(i+rot)%d] = i * shards / d
	}
	p := Partition{
		Shards:  shards,
		shardOf: make(map[string]int, len(bp.Nodes)),
		nodes:   make([][]string, shards),
	}
	for _, n := range bp.Nodes {
		s := districtShard[n.District]
		if _, dup := p.shardOf[n.Name]; dup {
			panic(fmt.Sprintf("topo: blueprint node %q declared twice", n.Name))
		}
		p.shardOf[n.Name] = s
		p.nodes[s] = append(p.nodes[s], n.Name)
	}
	for i, l := range bp.Links {
		fs, ok := p.shardOf[l.From]
		if !ok {
			panic(fmt.Sprintf("topo: link %s->%s references undeclared node %q", l.From, l.To, l.From))
		}
		ts, ok := p.shardOf[l.To]
		if !ok {
			panic(fmt.Sprintf("topo: link %s->%s references undeclared node %q", l.From, l.To, l.To))
		}
		if fs == ts {
			continue
		}
		if l.Delay <= 0 {
			panic(fmt.Sprintf("topo: cut link %s->%s has no propagation delay; a zero-delay cut leaves no conservative lookahead", l.From, l.To))
		}
		p.cuts = append(p.cuts, i)
		if p.lookahd == 0 || l.Delay < p.lookahd {
			p.lookahd = l.Delay
		}
	}
	return p
}

// ShardOf returns the shard a named node was assigned to.
func (p *Partition) ShardOf(name string) int {
	s, ok := p.shardOf[name]
	if !ok {
		panic(fmt.Sprintf("topo: node %q not in partition", name))
	}
	return s
}

// Nodes returns shard s's node names, in blueprint order.
func (p *Partition) Nodes(s int) []string { return p.nodes[s] }

// Lookahead returns the minimum propagation delay over the cut, or zero
// when no link crosses a boundary (the shards are fully independent and
// may run to the horizon in one window).
func (p *Partition) Lookahead() time.Duration { return p.lookahd }
