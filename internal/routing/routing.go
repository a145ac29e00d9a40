// Package routing provides path selection over netem topologies.
//
// Three routers are offered:
//
//   - Static: every packet takes one fixed path (classic unipath routing).
//   - Epsilon: the paper's ε-parameterized multipath family (§5). Each
//     packet independently picks a path with probability proportional to
//     exp(−ε·delay). ε = 0 uses all paths uniformly (maximum reordering);
//     large ε degenerates to shortest-path routing.
//   - Flap: oscillates between paths on a fixed period, modeling the route
//     flaps and MANET re-routing events the paper's introduction motivates.
//
// Routers hand out source routes; netem delivers packets strictly along
// them, so all reordering in the simulator comes from path diversity, not
// from modeling artifacts.
package routing

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"tcppr/internal/netem"
	"tcppr/internal/sim"
)

// Router chooses a source route for each packet of a flow.
type Router interface {
	// Route returns the path for the next packet. Implementations may
	// return the same slice on every call; callers must not mutate it.
	Route() []*netem.Link
}

// Static always returns the same path.
type Static struct{ Path []*netem.Link }

// Route implements Router.
func (s Static) Route() []*netem.Link { return s.Path }

// Epsilon implements the paper's multipath family: path p is chosen with
// probability proportional to exp(−ε·(d_p−d_min)/d_min), where d_p is the
// path's propagation delay and d_min the delay of the shortest path. The
// normalization by d_min makes the family scale-invariant: a given ε
// penalizes *relative* extra delay, so ε means the same thing on the 10 ms
// and 60 ms variants of the Fig 5 topology (the paper plots the same ε
// values for both). ε = 0 yields the uniform distribution over paths
// (full multipath); ε = 500 makes the shortest path win with probability
// indistinguishable from 1 (single-path routing).
type Epsilon struct {
	paths   [][]*netem.Link
	weights []float64 // cumulative, normalized to [0,1]
	rng     *rand.Rand
	eps     float64
}

// NewEpsilon builds an ε-router over the given candidate paths. The paths
// must be non-empty; the RNG must be non-nil (use sim.NewRand for
// determinism).
func NewEpsilon(paths [][]*netem.Link, eps float64, rng *rand.Rand) *Epsilon {
	if len(paths) == 0 {
		panic("routing: NewEpsilon requires at least one path")
	}
	if rng == nil {
		panic("routing: NewEpsilon requires a seeded RNG")
	}
	if eps < 0 {
		panic(fmt.Sprintf("routing: negative epsilon %v", eps))
	}
	e := &Epsilon{paths: paths, rng: rng, eps: eps}
	probs := pathProbabilities(paths, eps)
	e.weights = make([]float64, len(probs))
	acc := 0.0
	for i, p := range probs {
		acc += p
		e.weights[i] = acc
	}
	e.weights[len(e.weights)-1] = 1 // guard against rounding
	return e
}

// pathProbabilities computes the Gibbs distribution over paths. Delays are
// shifted by the minimum before exponentiation so large ε does not
// underflow every weight to zero, and scaled by the minimum so ε measures
// relative extra delay.
func pathProbabilities(paths [][]*netem.Link, eps float64) []float64 {
	minDelay := math.Inf(1)
	delays := make([]float64, len(paths))
	for i, p := range paths {
		delays[i] = netem.PathDelay(p).Seconds()
		if delays[i] < minDelay {
			minDelay = delays[i]
		}
	}
	scale := minDelay
	if scale <= 0 {
		scale = 1 // degenerate zero-delay topology: fall back to absolute seconds
	}
	probs := make([]float64, len(paths))
	var sum float64
	for i, d := range delays {
		probs[i] = math.Exp(-eps * (d - minDelay) / scale)
		sum += probs[i]
	}
	for i := range probs {
		probs[i] /= sum
	}
	return probs
}

// Route implements Router: an independent draw per packet.
func (e *Epsilon) Route() []*netem.Link {
	u := e.rng.Float64()
	i := sort.SearchFloat64s(e.weights, u)
	if i >= len(e.paths) {
		i = len(e.paths) - 1
	}
	return e.paths[i]
}

// Flap alternates deterministically among paths with a fixed dwell period,
// modeling route flaps: every Period of virtual time the active path
// switches to the next one. Packets in flight on the old path keep their
// source route, so a flap reorders the packets that straddle it.
type Flap struct {
	paths  [][]*netem.Link
	period time.Duration
	sched  *sim.Scheduler
}

// NewFlap builds a flapping router over the given paths.
func NewFlap(paths [][]*netem.Link, period time.Duration, sched *sim.Scheduler) *Flap {
	if len(paths) == 0 {
		panic("routing: NewFlap requires at least one path")
	}
	if period <= 0 {
		panic("routing: NewFlap requires a positive period")
	}
	return &Flap{paths: paths, period: period, sched: sched}
}

// Route implements Router.
func (f *Flap) Route() []*netem.Link {
	epoch := int(f.sched.Now() / f.period)
	return f.paths[epoch%len(f.paths)]
}
