package netem

import (
	"fmt"
	"math/rand"
	"time"
)

// Effect is one packet's impairment verdict: how much extra propagation
// delay it picks up and whether it arrives corrupted or duplicated.
type Effect struct {
	// ExtraDelay is added to the link's propagation delay for this packet
	// (and its duplicate, if any). Must be non-negative.
	ExtraDelay time.Duration
	// Corrupt marks the packet to be discarded at the far end with a
	// broken checksum after consuming its queue slot and wire time.
	Corrupt bool
	// Duplicate makes the link deliver an extra copy of the packet,
	// arriving at the same instant with independent route state.
	Duplicate bool
}

// Impairment is the pluggable per-packet impairment process a link
// consults once per accepted packet, in arrival order, at enqueue time —
// the same seam contract as LossModel. Implementations own their RNG
// state (seeded via sim.NewRand) and must consume it identically for
// every accepted packet regardless of the verdict, so runs stay
// deterministic; degenerate configurations (probability 0, zero jitter)
// must not consult the RNG at all.
//
// The shipped implementations are Jitter, Corruption and Duplication.
type Impairment interface {
	// Apply returns the impairment effect for a packet of the given wire
	// size. Called exactly once per accepted packet, in arrival order.
	Apply(size int) Effect
}

// Jitter adds an independent uniform extra propagation delay in [0, Max]
// per packet, modeling per-packet queueing variation in a QoS/DiffServ
// element. Draws only when Max > 0.
type Jitter struct {
	// Max is the inclusive upper bound of the uniform extra delay.
	Max time.Duration
	// RNG is the deterministic source; required when Max > 0.
	RNG *rand.Rand
}

// NewJitter validates the bound and returns a uniform jitter impairment.
func NewJitter(max time.Duration, rng *rand.Rand) *Jitter {
	if max < 0 {
		panic("netem: negative jitter")
	}
	if max > 0 && rng == nil {
		panic("netem: Jitter requires a seeded RNG")
	}
	return &Jitter{Max: max, RNG: rng}
}

// Apply implements Impairment.
func (j *Jitter) Apply(int) Effect {
	if j.Max <= 0 {
		return Effect{}
	}
	return Effect{ExtraDelay: time.Duration(j.RNG.Int63n(int64(j.Max) + 1))}
}

// Corruption marks each packet corrupt with a fixed probability: the
// packet consumes its queue slot, serialization time, and propagation
// delay, then is discarded at the far end (a checksum failure).
type Corruption struct {
	// Prob is the per-packet corruption probability in [0, 1].
	Prob float64
	// RNG is the deterministic source; required when Prob > 0.
	RNG *rand.Rand
}

// NewCorruption validates the probability and returns a corruption
// impairment.
func NewCorruption(prob float64, rng *rand.Rand) *Corruption {
	if prob < 0 || prob > 1 {
		panic(fmt.Sprintf("netem: corruption probability %v out of [0,1]", prob))
	}
	if prob > 0 && rng == nil {
		panic("netem: Corruption requires a seeded RNG")
	}
	return &Corruption{Prob: prob, RNG: rng}
}

// Apply implements Impairment.
func (c *Corruption) Apply(int) Effect {
	return Effect{Corrupt: c.Prob > 0 && c.RNG.Float64() < c.Prob}
}

// Duplication delivers an extra copy of each packet with a fixed
// probability, modeling link-layer retransmission duplicates.
type Duplication struct {
	// Prob is the per-packet duplication probability in [0, 1].
	Prob float64
	// RNG is the deterministic source; required when Prob > 0.
	RNG *rand.Rand
}

// NewDuplication validates the probability and returns a duplication
// impairment.
func NewDuplication(prob float64, rng *rand.Rand) *Duplication {
	if prob < 0 || prob > 1 {
		panic(fmt.Sprintf("netem: duplication probability %v out of [0,1]", prob))
	}
	if prob > 0 && rng == nil {
		panic("netem: Duplication requires a seeded RNG")
	}
	return &Duplication{Prob: prob, RNG: rng}
}

// Apply implements Impairment.
func (d *Duplication) Apply(int) Effect {
	return Effect{Duplicate: d.Prob > 0 && d.RNG.Float64() < d.Prob}
}
