package faults

import (
	"fmt"
	"math/rand"
)

// GilbertElliott is the two-state Markov burst-loss model: the channel sits
// in a Good or Bad state, each with its own per-packet loss probability,
// and flips between them with fixed per-packet transition probabilities.
// Unlike i.i.d. loss, drops cluster — short dense loss episodes separated
// by long clean stretches — which is what a fading wireless hop or an
// overloaded QoS element actually does to a flow. Mean burst length is
// 1/PGood packets; the stationary fraction of time spent Bad is
// PBad/(PBad+PGood).
//
// It implements netem.LossModel; install it with Link.SetLossModel or a
// Timeline.LossModelStep.
type GilbertElliott struct {
	// PBad is the per-packet probability of flipping Good -> Bad.
	PBad float64
	// PGood is the per-packet probability of flipping Bad -> Good.
	PGood float64
	// LossGood is the per-packet loss probability while Good (often 0).
	LossGood float64
	// LossBad is the per-packet loss probability while Bad (often near 1).
	LossBad float64

	rng *rand.Rand
	bad bool
}

// NewGilbertElliott validates the parameters and returns a model starting
// in the Good state. The RNG must come from sim.NewRand.
func NewGilbertElliott(pBad, pGood, lossGood, lossBad float64, rng *rand.Rand) *GilbertElliott {
	for name, p := range map[string]float64{
		"PBad": pBad, "PGood": pGood, "LossGood": lossGood, "LossBad": lossBad,
	} {
		if p < 0 || p > 1 {
			panic(fmt.Sprintf("faults: GilbertElliott %s = %v out of [0,1]", name, p))
		}
	}
	if rng == nil {
		panic("faults: GilbertElliott requires a seeded RNG")
	}
	return &GilbertElliott{PBad: pBad, PGood: pGood, LossGood: lossGood, LossBad: lossBad, rng: rng}
}

// DefaultGE returns the parameterization the canned burst-loss scenario
// uses: bursts of ~20 packets losing 90% of what they touch, entered
// roughly every 500 packets, with a clean Good state. Stationary loss is
// ~3.5% but concentrated enough to defeat duplicate-ACK recovery.
func DefaultGE(rng *rand.Rand) *GilbertElliott {
	return NewGilbertElliott(0.002, 0.05, 0, 0.9, rng)
}

// Drop implements netem.LossModel. The state-transition draw happens
// first, then the loss draw under the new state, one packet per call — two
// RNG consumptions per packet, fixed, so the stream stays aligned across
// runs no matter which states the walk visits.
func (g *GilbertElliott) Drop(int) bool {
	flip := g.rng.Float64()
	if g.bad {
		if flip < g.PGood {
			g.bad = false
		}
	} else {
		if flip < g.PBad {
			g.bad = true
		}
	}
	p := g.LossGood
	if g.bad {
		p = g.LossBad
	}
	return g.rng.Float64() < p
}
