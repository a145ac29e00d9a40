package topo

import (
	"fmt"
	"time"
)

// CityConfig parameterizes NewCity, the scale-out topology the parallel
// engine (internal/psim) runs: a ring of districts, each a star of host
// nodes around one district router, with neighbouring routers joined by
// backbone links. Districts are the partitioner's atomic unit, so the
// web-like on/off traffic wired inside a district never crosses a shard
// boundary, while long-lived flows between neighbouring districts ride
// the backbone — and, when the ring is cut, the cross-shard portals.
//
// Zero values select: 5 ms backbone delay, 100 Mbps access, 100-packet
// queues. The backbone bandwidth (400 Mbps) and the access delay (1 ms)
// are fixed. The backbone delay doubles as the conservative lookahead
// whenever the ring is cut, so it is deliberately the largest delay in the
// city.
type CityConfig struct {
	Districts        int // number of districts (required)
	HostsPerDistrict int // host nodes per district (required)

	BackboneDelay time.Duration
	// BackboneSkew, when non-zero, adds d×BackboneSkew to ring pair d's
	// propagation delay (both directions), breaking the ring's perfect
	// symmetry — real backbones are heterogeneous, and equal delays are
	// the worst case for a sharded run (arrivals from different
	// neighbour shards systematically collide on identical timestamps,
	// riding entirely on psim's exchange tie-break). The minimum ring
	// delay — psim's lookahead — is unchanged: pair 0 keeps the base
	// delay.
	BackboneSkew time.Duration
	AccessBW     int64
	Queue        int
}

// Fixed city link parameters.
const (
	cityBackboneBW  = 400e6 // bits/s
	cityAccessDelay = time.Millisecond
)

func (c *CityConfig) fill() {
	if c.Districts <= 0 {
		panic("topo: CityConfig.Districts must be positive")
	}
	if c.HostsPerDistrict <= 0 {
		panic("topo: CityConfig.HostsPerDistrict must be positive")
	}
	if c.BackboneDelay == 0 {
		c.BackboneDelay = 5 * time.Millisecond
	}
	if c.AccessBW == 0 {
		c.AccessBW = Mbps(100)
	}
	if c.Queue == 0 {
		c.Queue = DefaultQueue
	}
}

// CityRouter names district d's router.
func CityRouter(d int) string { return fmt.Sprintf("r%d", d) }

// CityHost names host h of district d.
func CityHost(d, h int) string { return fmt.Sprintf("h%d.%d", d, h) }

// NewCity builds the city blueprint: per district, HostsPerDistrict hosts
// joined to the district router by duplex access links; districts joined
// into a ring of duplex backbone links (a single duplex pair when there
// are exactly two districts, none for one).
func NewCity(cfg CityConfig) Blueprint {
	cfg.fill()
	var bp Blueprint
	for d := 0; d < cfg.Districts; d++ {
		bp.AddNode(CityRouter(d), d)
		for h := 0; h < cfg.HostsPerDistrict; h++ {
			bp.AddNode(CityHost(d, h), d)
			bp.AddDuplex(CityHost(d, h), CityRouter(d), cfg.AccessBW, cityAccessDelay, cfg.Queue)
		}
	}
	switch {
	case cfg.Districts == 2:
		bp.AddDuplex(CityRouter(0), CityRouter(1), cityBackboneBW, cfg.BackboneDelay, cfg.Queue)
	case cfg.Districts > 2:
		for d := 0; d < cfg.Districts; d++ {
			delay := cfg.BackboneDelay + time.Duration(d)*cfg.BackboneSkew
			bp.AddDuplex(CityRouter(d), CityRouter((d+1)%cfg.Districts), cityBackboneBW, delay, cfg.Queue)
		}
	}
	return bp
}
