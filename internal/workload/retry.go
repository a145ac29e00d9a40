package workload

import (
	"math/rand"
	"time"

	"tcppr/internal/tcp"
)

// RetryConfig makes a workload source abort-aware: each transfer's flow
// gets the abort policy, and when a connection aborts (R2 retransmission
// exhaustion or user timeout — typically because the peer host is down)
// the source re-establishes on a fresh connection after a capped
// exponential backoff, up to a budget of attempts. This is the
// application-level retry loop that sits above RFC 1122 §4.2.3.5 abort
// semantics in real deployments: TCP gives up on the *connection*, the
// application decides whether to give up on the *transfer*.
type RetryConfig struct {
	// Abort is the per-connection abort policy applied to every attempt
	// (tcp.AbortConfig zero value would make retries unreachable, so a
	// zero R2 is defaulted to 6 — about five backoffs deep).
	Abort tcp.AbortConfig
	// MaxAttempts is the total connection budget per transfer, including
	// the first (default 4: one try plus three retries).
	MaxAttempts int
	// BaseBackoff is the delay before the first retry (default 1s).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (default 16s).
	MaxBackoff time.Duration
}

// jitterFrac spreads each backoff uniformly over ±10 % of its value so
// flap-synchronized sources do not retry in lockstep. Drawn from the
// source's seeded RNG, so runs stay deterministic.
const jitterFrac = 0.1

func (c *RetryConfig) fill() {
	if c.Abort.R2 == 0 {
		c.Abort.R2 = 6
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 4
	}
	if c.BaseBackoff == 0 {
		c.BaseBackoff = time.Second
	}
	if c.MaxBackoff == 0 {
		c.MaxBackoff = 16 * time.Second
	}
	if c.MaxAttempts < 1 {
		panic("workload: RetryConfig.MaxAttempts must be >= 1")
	}
}

// Backoff returns the delay before retry number n (n=1 is the retry after
// the first failed attempt): BaseBackoff·2^(n-1), capped at MaxBackoff,
// jittered by ±jitterFrac. The RNG must be the caller's seeded stream.
func (c RetryConfig) Backoff(n int, rng *rand.Rand) time.Duration {
	if n < 1 {
		n = 1
	}
	d := c.BaseBackoff
	for i := 1; i < n && d < c.MaxBackoff; i++ {
		d *= 2
	}
	if d > c.MaxBackoff {
		d = c.MaxBackoff
	}
	return time.Duration(float64(d) * (1 + jitterFrac*(2*rng.Float64()-1)))
}
