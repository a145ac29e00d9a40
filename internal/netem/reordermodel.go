package netem

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"tcppr/internal/sim"
)

// ReleaseSink is the surface a ReorderModel uses to hand back packets it
// held. The link the model is installed on implements it; models must
// not deliver packets any other way.
type ReleaseSink interface {
	// Release delivers a previously held packet at the given virtual
	// time (clamped to now if in the past). Each held packet must be
	// released exactly once; a double release panics.
	Release(p *Packet, at sim.Time)
	// Scheduler exposes the link's scheduler so models can arm their own
	// timers (batch deadlines, hold caps) with closure-free AtFunc.
	Scheduler() *sim.Scheduler
}

// ReorderModel is the pluggable packet-reordering process a link
// consults once per accepted packet, in arrival order, at enqueue time —
// the LossModel seam applied to sequencing instead of loss. The model
// decides each packet's release: either immediately, by returning a
// release time (>= the nominal arrival; the link clamps), or by taking
// custody (held=true) and releasing it later through the ReleaseSink —
// from a subsequent Admit or from a model-owned timer.
//
// Contract:
//   - Admit must not Release the packet it was just offered; to schedule
//     it, return its release time with held=false.
//   - Every held packet must eventually be released exactly once (the
//     invariant checker audits the held/released ledger).
//   - All randomness comes from sim.NewRand sources, consumed in Admit
//     (arrival) order, so runs stay deterministic.
//
// Duplicate copies minted by a Duplication impairment bypass the model:
// they ride the original's release time, modeling a link-layer repeat of
// whatever the reordering element emitted.
type ReorderModel interface {
	// Bind attaches the model to the link it serves. Called once by
	// SetReorderModel before any Admit.
	Bind(sink ReleaseSink)
	// Admit offers one accepted packet with its nominal arrival time
	// (serialization done + propagation + impairment delay). It returns
	// the packet's release time, or held=true if the model takes custody.
	Admit(p *Packet, arrive sim.Time) (release sim.Time, held bool)
}

// DefaultMaxHold caps how long SwapDistance keeps custody of a packet
// when traffic stops arriving: a held packet with no successors to slip
// behind is force-released, so reordering can delay but never strand
// traffic.
const DefaultMaxHold = 50 * time.Millisecond

// SwapDistance reorders by holding an occasional packet until a bounded
// number of successors overtake it — the reassembly-app idiom of a
// monotone-decreasing displacement distribution. Probs[0] is the overall
// probability that a packet is displaced at all; a packet whose dice
// lands under Probs[d-1] (checked from the largest distance down) is
// held until d later packets have passed it, then released just behind
// the d-th. Displacement therefore never exceeds len(Probs): the stream
// is k-almost-sorted with k = len(Probs) in the bounded-displacement
// sense of the Hansson–Istrate permutation measures.
//
// At most one packet is in custody at a time; dice are drawn for every
// admitted packet whether or not a hold is possible, so the RNG stream
// is a pure function of the arrival sequence.
type SwapDistance struct {
	probs   []float64
	rng     *rand.Rand
	maxHold time.Duration

	sink      ReleaseSink
	held      *Packet
	heldAt    sim.Time // held packet's nominal arrival
	remaining int      // successors still to overtake
	timer     sim.Handle
	timeoutFn func(any)
}

// NewSwapDistance builds a swap-distance model from a monotone
// non-increasing probability ladder (probs[d-1] = probability a packet
// is displaced by at least d positions). maxHold bounds custody in
// virtual time; zero selects DefaultMaxHold.
func NewSwapDistance(probs []float64, maxHold time.Duration, rng *rand.Rand) *SwapDistance {
	if len(probs) == 0 {
		panic("netem: SwapDistance needs at least one displacement probability")
	}
	prev := 1.0
	for i, p := range probs {
		if p < 0 || p > 1 {
			panic(fmt.Sprintf("netem: SwapDistance prob[%d]=%v out of [0,1]", i, p))
		}
		if p > prev {
			panic(fmt.Sprintf("netem: SwapDistance probs must be non-increasing, prob[%d]=%v > %v", i, p, prev))
		}
		prev = p
	}
	if probs[0] > 0 && rng == nil {
		panic("netem: SwapDistance requires a seeded RNG")
	}
	if maxHold <= 0 {
		maxHold = DefaultMaxHold
	}
	m := &SwapDistance{probs: probs, rng: rng, maxHold: maxHold}
	m.timeoutFn = m.timeout
	return m
}

// Bind implements ReorderModel.
func (m *SwapDistance) Bind(sink ReleaseSink) { m.sink = sink }

// Admit implements ReorderModel.
func (m *SwapDistance) Admit(p *Packet, arrive sim.Time) (sim.Time, bool) {
	var dice float64
	if m.probs[0] > 0 {
		dice = m.rng.Float64()
	} else {
		dice = 1
	}
	if m.held != nil {
		m.remaining--
		if m.remaining == 0 {
			// The d-th successor just passed: release the captive one
			// nanosecond behind it so exactly d packets overtook it.
			rel := arrive + 1
			if rel < m.heldAt {
				rel = m.heldAt
			}
			m.releaseHeld(rel)
		}
	}
	if m.held == nil {
		for d := len(m.probs); d > 0; d-- {
			if dice < m.probs[d-1] {
				m.held = p
				m.heldAt = arrive
				m.remaining = d
				m.timer = m.sink.Scheduler().AtFunc(arrive+sim.Time(m.maxHold), m.timeoutFn, m)
				return 0, true
			}
		}
	}
	return arrive, false
}

// releaseHeld hands the captive back to the link and disarms the hold
// cap. The timer must be canceled before release: released packets are
// recycled through the pool, so a stale timer firing against a reused
// packet would corrupt an unrelated flow.
func (m *SwapDistance) releaseHeld(at sim.Time) {
	p := m.held
	m.held = nil
	m.timer.Cancel()
	m.sink.Release(p, at)
}

// timeout is the closure-free hold-cap trampoline: traffic stopped while
// a packet was in custody, so nothing will overtake it — let it go now.
func (*SwapDistance) timeout(arg any) {
	m := arg.(*SwapDistance)
	if m.held != nil {
		p := m.held
		m.held = nil
		m.sink.Release(p, m.sink.Scheduler().Now())
	}
}

// Coalesce models NIC interrupt-coalescing batch reordering (Wu et al.):
// the receiving element accumulates packets until the batch fills or a
// deadline expires, then raises one interrupt and drains the batch in
// reversed (stack) order — or a seeded shuffle — with a fixed spacing
// between releases. Persistent, structural reordering: every full batch
// is maximally inverted.
type Coalesce struct {
	batch   int
	timeout time.Duration
	spacing time.Duration
	shuffle *rand.Rand // nil = deterministic reversed order

	sink      ReleaseSink
	held      []*Packet
	arrives   []sim.Time
	order     []int
	timer     sim.Handle
	timeoutFn func(any)
}

// NewCoalesce builds a batch-reordering model: batches of batch packets
// (or whatever accumulated when timeout expires after the first arrival)
// are released spacing apart, newest first; a non-nil rng shuffles each
// batch instead.
func NewCoalesce(batch int, timeout, spacing time.Duration, rng *rand.Rand) *Coalesce {
	if batch < 2 {
		panic(fmt.Sprintf("netem: Coalesce batch %d must be at least 2", batch))
	}
	if timeout <= 0 {
		panic("netem: Coalesce requires a positive timeout")
	}
	if spacing < 0 {
		panic("netem: negative Coalesce spacing")
	}
	m := &Coalesce{batch: batch, timeout: timeout, spacing: spacing, shuffle: rng}
	m.timeoutFn = m.deadline
	return m
}

// Bind implements ReorderModel.
func (m *Coalesce) Bind(sink ReleaseSink) { m.sink = sink }

// Admit implements ReorderModel.
func (m *Coalesce) Admit(p *Packet, arrive sim.Time) (sim.Time, bool) {
	if len(m.held) == 0 {
		m.timer = m.sink.Scheduler().AtFunc(arrive+sim.Time(m.timeout), m.timeoutFn, m)
	}
	m.held = append(m.held, p)
	m.arrives = append(m.arrives, arrive)
	if len(m.held) >= m.batch {
		m.timer.Cancel()
		return m.drain(arrive, true)
	}
	return 0, true
}

// deadline is the closure-free batch-timeout trampoline.
func (*Coalesce) deadline(arg any) {
	m := arg.(*Coalesce)
	if len(m.held) > 0 {
		m.drain(m.sink.Scheduler().Now(), false)
	}
}

// drain releases the whole batch starting at the given instant. The
// newest member is not yet in link custody when the batch fills on
// admission (the Admit contract forbids releasing the offered packet),
// so its slot in the schedule is returned instead of sunk.
func (m *Coalesce) drain(at sim.Time, fromAdmit bool) (sim.Time, bool) {
	n := len(m.held)
	m.order = m.order[:0]
	for i := n - 1; i >= 0; i-- { // reversed: last in, first out
		m.order = append(m.order, i)
	}
	if m.shuffle != nil {
		m.shuffle.Shuffle(n, func(i, j int) {
			m.order[i], m.order[j] = m.order[j], m.order[i]
		})
	}
	var newestRel sim.Time
	for rank, idx := range m.order {
		rel := at + sim.Time(rank)*sim.Time(m.spacing)
		if rel < m.arrives[idx] {
			rel = m.arrives[idx]
		}
		if fromAdmit && idx == n-1 {
			newestRel = rel
			continue
		}
		m.sink.Release(m.held[idx], rel)
	}
	for i := range m.held {
		m.held[i] = nil
	}
	m.held = m.held[:0]
	m.arrives = m.arrives[:0]
	if fromAdmit {
		return newestRel, false
	}
	return 0, true
}

// Stripe models per-packet multipath striping: each packet is assigned
// to one of several parallel sub-paths with unequal one-way delays, so
// consecutive packets race each other across paths — the classic
// persistent-reordering source the paper targets. Assignment is
// round-robin (rng nil) or uniform random; packets on the same stripe
// stay FIFO.
type Stripe struct {
	offsets []time.Duration
	rng     *rand.Rand
	next    int
}

// NewStripe builds a striping model from per-sub-path extra delays (one
// entry per path; at least two, at least one of them distinct for any
// reordering to occur). A non-nil rng picks paths uniformly at random;
// nil deals round-robin.
func NewStripe(offsets []time.Duration, rng *rand.Rand) *Stripe {
	if len(offsets) < 2 {
		panic("netem: Stripe needs at least two sub-path delay offsets")
	}
	for i, d := range offsets {
		if d < 0 {
			panic(fmt.Sprintf("netem: Stripe offset[%d]=%v negative", i, d))
		}
	}
	return &Stripe{offsets: offsets, rng: rng}
}

// Bind implements ReorderModel.
func (*Stripe) Bind(ReleaseSink) {}

// Admit implements ReorderModel.
func (m *Stripe) Admit(_ *Packet, arrive sim.Time) (sim.Time, bool) {
	var i int
	if m.rng != nil {
		i = m.rng.Intn(len(m.offsets))
	} else {
		i = m.next
		m.next++
		if m.next == len(m.offsets) {
			m.next = 0
		}
	}
	return arrive + sim.Time(m.offsets[i]), false
}

// ReorderScenario is one canned, named reorder-model configuration, the
// catalog entry the reordermatrix experiment and the -reorder CLI flag
// select from. New returns a fresh model seeded from the given RNG; a
// nil model means "no reordering" (the baseline cell).
type ReorderScenario struct {
	Name     string
	Describe string
	New      func(rng *rand.Rand) ReorderModel
}

// reorderScenarios is the shipped catalog. swap-low mirrors the
// reassembly-app ladder (≈13% of packets displaced, almost all by one
// position); swap-high pushes ≈45% displacement with real mass at
// distance ≥ 3 — persistent reordering past any three-dupack threshold.
var reorderScenarios = []ReorderScenario{
	{
		Name:     "none",
		Describe: "baseline: in-order link, no reordering source",
		New:      func(*rand.Rand) ReorderModel { return nil },
	},
	{
		Name:     "swap-low",
		Describe: "swap-distance, mild: 12.8% displaced, bound 5 (reasm_app ladder)",
		New: func(rng *rand.Rand) ReorderModel {
			return NewSwapDistance([]float64{0.128, 0.032, 0.008, 0.002, 0.0005}, 0, rng)
		},
	},
	{
		Name:     "swap-high",
		Describe: "swap-distance, severe: 45% displaced, bound 8, heavy tail past dupack thresholds",
		New: func(rng *rand.Rand) ReorderModel {
			return NewSwapDistance([]float64{0.45, 0.36, 0.28, 0.21, 0.15, 0.10, 0.06, 0.03}, 0, rng)
		},
	},
	{
		Name:     "coalesce",
		Describe: "NIC interrupt coalescing: batches of 8 (4ms deadline) released in reversed bursts",
		New: func(*rand.Rand) ReorderModel {
			return NewCoalesce(8, 4*time.Millisecond, 100*time.Microsecond, nil)
		},
	},
	{
		Name:     "stripe",
		Describe: "multipath striping: random per-packet spray over 3 sub-paths at +0/+5/+10ms",
		New: func(rng *rand.Rand) ReorderModel {
			return NewStripe([]time.Duration{0, 5 * time.Millisecond, 10 * time.Millisecond}, rng)
		},
	},
}

// ReorderScenarios returns the canned reorder-model catalog.
func ReorderScenarios() []ReorderScenario {
	out := make([]ReorderScenario, len(reorderScenarios))
	copy(out, reorderScenarios)
	return out
}

// ReorderScenarioNames returns the catalog names in registration order.
func ReorderScenarioNames() []string {
	names := make([]string, len(reorderScenarios))
	for i, s := range reorderScenarios {
		names[i] = s.Name
	}
	return names
}

// ReorderScenarioByName looks up a canned reorder scenario.
func ReorderScenarioByName(name string) (ReorderScenario, error) {
	for _, s := range reorderScenarios {
		if s.Name == name {
			return s, nil
		}
	}
	known := append([]string(nil), ReorderScenarioNames()...)
	sort.Strings(known)
	return ReorderScenario{}, fmt.Errorf("netem: unknown reorder scenario %q (have %v)", name, known)
}
