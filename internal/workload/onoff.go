package workload

import (
	"math"
	"math/rand"
	"time"

	"tcppr/internal/netem"
	"tcppr/internal/routing"
	"tcppr/internal/sim"
	"tcppr/internal/tcp"
)

// OnOffConfig describes a web-like background-traffic source: a sequence
// of short transfers ("pages") with Pareto-distributed sizes separated by
// exponential think times. Short flows spend their lives in slow start
// and produce the bursty, loss-inducing cross traffic that long-lived FTP
// flows alone cannot, which is how evaluation setups of the paper's era
// stressed fairness results.
type OnOffConfig struct {
	// MeanSizePkts is the mean transfer size in packets (default 20).
	MeanSizePkts float64
	// MeanThink is the mean off period between transfers (default 500 ms).
	MeanThink time.Duration
	// Protocol carries each transfer (default TCP-SACK).
	Protocol string
	// OnFlow, when set, observes every transfer's flow right after its
	// sender is attached and before it starts — the seam the sharded city
	// uses to chain each short-lived connection onto its shard's
	// conformance checker.
	OnFlow func(f *tcp.Flow, protocol string)
	// Retry, when set, makes the source abort-aware: every transfer's
	// flow carries Retry.Abort, and an aborted connection is re-tried on
	// a fresh flow after a capped exponential backoff. A transfer that
	// exhausts Retry.MaxAttempts is abandoned and the source stops — so
	// against a permanently dead peer the source terminates in bounded
	// virtual time instead of stalling forever.
	Retry *RetryConfig
	// MaxTransfers, when positive, stops the source after that many
	// completed transfers (0 = keep going for the whole run). Bounded
	// sources let drain tests assert full event-queue quiescence.
	MaxTransfers int
}

func (c *OnOffConfig) fill() {
	if c.MeanSizePkts == 0 {
		c.MeanSizePkts = 20
	}
	if c.MeanThink == 0 {
		c.MeanThink = 500 * time.Millisecond
	}
	if c.Protocol == "" {
		c.Protocol = TCPSACK
	}
	if c.Retry != nil {
		c.Retry.fill()
	}
}

// OnOffSource generates back-to-back finite transfers between two nodes.
// Each transfer runs as its own flow (a fresh connection, like a browser
// fetch); when the transfer's data is delivered the source thinks, then
// starts the next one.
type OnOffSource struct {
	cfg      OnOffConfig
	net      *netem.Network
	src, dst *netem.Node
	fwd, rev routing.Router
	rng      *rand.Rand
	flowBase int

	// Transfers counts completed transfers; BytesDelivered sums their
	// delivered payload.
	Transfers      int
	BytesDelivered int64
	// Retries counts connections re-established after an abort; GaveUp
	// counts transfers abandoned after the retry budget ran out. Both
	// stay zero unless OnOffConfig.Retry is set.
	Retries int
	GaveUp  int

	cur           *tcp.Flow
	curTarget     int64
	curTargetPkts int64 // page size in packets, constant across retries
	flowSeq       int
	attempt       int  // connection attempts for the current transfer
	stopped       bool // gave up or hit MaxTransfers; schedules nothing more
}

// NewOnOffSource wires a source between two nodes. flowBase is the base
// for the (unique) per-transfer flow IDs; each source needs its own
// disjoint ID range. The RNG must come from sim.NewRand.
func NewOnOffSource(net *netem.Network, flowBase int, src, dst *netem.Node, fwd, rev routing.Router, cfg OnOffConfig, rng *rand.Rand) *OnOffSource {
	cfg.fill()
	if rng == nil {
		panic("workload: NewOnOffSource requires a seeded RNG")
	}
	return &OnOffSource{
		cfg: cfg, net: net, src: src, dst: dst, fwd: fwd, rev: rev,
		rng: rng, flowBase: flowBase,
	}
}

// FlowsStarted returns the number of transfers opened so far, completed
// or not.
func (s *OnOffSource) FlowsStarted() int { return s.flowSeq }

// Start schedules the first transfer at the given time.
func (s *OnOffSource) Start(at sim.Time) {
	s.net.Scheduler().At(at, s.beginTransfer)
}

// paretoShape is the transfer-size distribution's tail index: the classic
// heavy-tailed web value, above 1 for a finite mean.
const paretoShape = 1.5

// pareto draws a Pareto(shape, xm) sample with the configured mean:
// mean = xm*shape/(shape-1) => xm = mean*(shape-1)/shape, clamped to
// [1, 10000] packets so one tail draw cannot dominate a run.
func (s *OnOffSource) pareto() int64 {
	shape := paretoShape
	xm := s.cfg.MeanSizePkts * (shape - 1) / shape
	u := s.rng.Float64()
	for u == 0 {
		u = s.rng.Float64()
	}
	size := xm / math.Pow(u, 1/shape)
	if size < 1 {
		size = 1
	}
	if size > 10000 {
		size = 10000
	}
	return int64(size)
}

// Done reports whether the source has stopped for good: it either hit
// MaxTransfers or abandoned a transfer after exhausting its retry budget.
func (s *OnOffSource) Done() bool { return s.stopped }

// GenStats is a source's outcome ledger: how many connections it
// opened, how many transfers completed, the payload they delivered, and
// the retry/abandonment counts of an abort-aware source.
type GenStats struct {
	FlowsStarted   int
	Transfers      int
	BytesDelivered int64
	Retries        int
	GaveUp         int
}

// Stats folds the exported counters into one ledger.
func (s *OnOffSource) Stats() GenStats {
	return GenStats{
		FlowsStarted:   s.flowSeq,
		Transfers:      s.Transfers,
		BytesDelivered: s.BytesDelivered,
		Retries:        s.Retries,
		GaveUp:         s.GaveUp,
	}
}

// beginTransfer draws the next page size and opens its first connection.
func (s *OnOffSource) beginTransfer() {
	if s.stopped {
		return
	}
	s.attempt = 0
	s.curTargetPkts = s.pareto()
	s.startAttempt()
}

// startAttempt opens a fresh connection (attempt 1 or a retry — same page,
// new flow ID: real stacks cannot resurrect an aborted connection either).
func (s *OnOffSource) startAttempt() {
	s.attempt++
	s.flowSeq++
	id := s.flowBase + s.flowSeq
	target := s.curTargetPkts
	f := tcp.NewFlow(s.net, id, s.src, s.dst, s.fwd, s.rev)
	s.cur = f
	s.curTarget = target * int64(f.PktSize)

	afterStart := func() {}
	if r := s.cfg.Retry; r != nil {
		// Abort-aware mode: the flow carries the abort policy, and
		// completion rides the receiver's ACK emission instead of a poll
		// loop — a poll would keep an event pending forever on a transfer
		// that aborts, and the drain tests demand full quiescence.
		f.AbortPolicy = r.Abort
		settled := false // completion and abort are mutually exclusive
		f.Hooks = f.Hooks.Chain(tcp.FlowHooks{
			OnAckSent: func(_ tcp.Ack, _ sim.Time) {
				if settled || f.UniqueBytes() < s.curTarget {
					return
				}
				settled = true
				s.finishTransfer()
			},
			OnAbort: func(_ tcp.AbortReason, _ sim.Time) {
				if settled {
					return
				}
				settled = true
				s.retryOrGiveUp()
			},
		})
	} else {
		// Legacy mode: the sender stops on its own at the MaxData limit;
		// completion is observed on the receiver side (all `target`
		// distinct segments arrived), polled at an RTT-ish interval.
		var poll func()
		poll = func() {
			if f.UniqueBytes() >= s.curTarget {
				s.finishTransfer()
				return
			}
			s.net.Scheduler().After(20*time.Millisecond, poll)
		}
		afterStart = func() { s.net.Scheduler().After(20*time.Millisecond, poll) }
	}
	f.Attach(Factory(s.cfg.Protocol, PRParams{MaxDataPkts: target}))
	if s.cfg.OnFlow != nil {
		s.cfg.OnFlow(f, s.cfg.Protocol)
	}
	f.Start(s.net.Scheduler().Now())
	afterStart()
}

// retryOrGiveUp runs after an abort: re-establish after a capped
// exponential backoff, or abandon the transfer once the connection budget
// is spent. Giving up stops the source — against a permanently dead peer
// that is the bounded-termination outcome the churn matrix asserts.
func (s *OnOffSource) retryOrGiveUp() {
	r := s.cfg.Retry
	if s.attempt >= r.MaxAttempts {
		s.GaveUp++
		s.stopped = true
		return
	}
	s.Retries++
	s.net.Scheduler().After(r.Backoff(s.attempt, s.rng), s.startAttempt)
}

// finishTransfer books the page and schedules the next one after an
// exponential think time.
func (s *OnOffSource) finishTransfer() {
	s.Transfers++
	s.BytesDelivered += s.cur.UniqueBytes()
	if s.cfg.MaxTransfers > 0 && s.Transfers >= s.cfg.MaxTransfers {
		s.stopped = true
		return
	}
	think := time.Duration(s.rng.ExpFloat64() * float64(s.cfg.MeanThink))
	s.net.Scheduler().After(think, s.beginTransfer)
}
