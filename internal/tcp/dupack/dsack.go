package dupack

import "tcppr/internal/tcp"

// The Blanton–Allman DSACK response schemes [3] the paper benchmarks
// against (Fig 6) are a SACK sender that, after a DSACK report proves a
// fast retransmit spurious, restores the congestion state saved at
// recovery entry and adjusts the duplicate-ACK threshold by one of four
// policies. [3] pairs each with extended limited transmit, so large
// thresholds do not stall the ACK clock.

// dupThreshPolicy picks the duplicate-ACK threshold after a spurious fast
// retransmit.
type dupThreshPolicy interface {
	// onSpurious returns the new dupthresh given the current value and
	// the number of duplicate ACKs observed during the spurious episode.
	onSpurious(current, observed int) int
}

func dsack(env tcp.SenderEnv, cfg Config, p dupThreshPolicy) *SACKSender {
	s := SACK(env, cfg)
	s.policy = p
	return s
}

// DSACKNM builds [3]'s baseline response ("no move"): undo the window
// reduction, leave dupthresh alone.
func DSACKNM(env tcp.SenderEnv, cfg Config) *SACKSender { return dsack(env, cfg, nm{}) }

// DSACKInc1 builds "Inc by 1": dupthresh grows by one per spurious
// retransmit.
func DSACKInc1(env tcp.SenderEnv, cfg Config) *SACKSender { return dsack(env, cfg, inc1{}) }

// DSACKIncN builds "Inc by N": dupthresh becomes the average of its
// current value and the duplicate-ACK count of the spurious episode.
func DSACKIncN(env tcp.SenderEnv, cfg Config) *SACKSender { return dsack(env, cfg, incN{}) }

// DSACKEWMA builds "EWMA": dupthresh tracks an exponentially weighted
// moving average of the observed duplicate-ACK counts.
func DSACKEWMA(env tcp.SenderEnv, cfg Config) *SACKSender { return dsack(env, cfg, &ewma{}) }

type nm struct{}

func (nm) onSpurious(current, _ int) int { return current }

type inc1 struct{}

func (inc1) onSpurious(current, _ int) int { return current + 1 }

type incN struct{}

func (incN) onSpurious(current, observed int) int { return (current + observed + 1) / 2 }

// ewmaGain is the EWMA weight on a new observation.
const ewmaGain = 0.25

type ewma struct{ avg float64 }

func (e *ewma) onSpurious(current, observed int) int {
	if e.avg == 0 {
		e.avg = float64(current)
	}
	e.avg = (1-ewmaGain)*e.avg + ewmaGain*float64(observed)
	return int(e.avg + 0.5)
}
