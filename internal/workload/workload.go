// Package workload assembles flows for experiments: a registry of every
// TCP variant in the repository (keyed by the labels the paper's figures
// use), long-lived FTP-style flow construction with staggered starts, and
// windowed goodput measurement.
package workload

import (
	"fmt"
	"sort"
	"time"

	"tcppr/internal/core"
	"tcppr/internal/sim"
	"tcppr/internal/tcp"
	"tcppr/internal/tcp/dupack"
)

// Protocol names, matching the labels of the paper's figures.
const (
	TCPPR    = "TCP-PR"
	TCPSACK  = "TCP-SACK"
	TCPReno  = "Reno"
	NewReno  = "NewReno"
	TDFR     = "TD-FR"
	DSACKNM  = "DSACK-NM"
	DSACKIn1 = "Inc by 1"
	DSACKInN = "Inc by N"
	DSACKEW  = "EWMA"
	// Extensions beyond the paper's Fig 6 set (§2 related work).
	TCPDOOR = "TCP-DOOR"
	Eifel   = "Eifel"
)

// PRParams carries the TCP-PR tuning knobs experiments sweep (Fig 4),
// plus cross-protocol workload options.
type PRParams struct {
	Alpha float64 // default 0.995
	Beta  float64 // default 3.0
	// UnboundedSlowStart removes the ns-2-default initial ssthresh of 20
	// from EVERY protocol, letting the first slow start probe up to the
	// path's capacity. Used by single-flow experiments (Fig 6), where
	// convergence through congestion avoidance alone would dominate the
	// measurement at large bandwidth-delay products.
	UnboundedSlowStart bool
	// MaxDataPkts bounds the transfer at this many segments for every
	// protocol (0 = infinite FTP-style backlog). Finite transfers back
	// the web-like on/off workload.
	MaxDataPkts int64
}

func (p PRParams) ssthresh() float64 {
	if p.UnboundedSlowStart {
		return -1
	}
	return 0 // package default (20)
}

// SenderFactory builds a sender for a flow environment.
type SenderFactory func(env tcp.SenderEnv) tcp.Sender

// Factory returns the sender constructor for a protocol name. PR
// parameters apply only to TCP-PR. It panics on unknown names — an
// experiment asking for a protocol we do not model is a configuration
// bug, not a runtime condition.
func Factory(name string, pr PRParams) SenderFactory {
	cfg := dupack.Config{InitialSsthresh: pr.ssthresh(), MaxData: pr.MaxDataPkts}
	switch name {
	case TCPPR:
		return func(env tcp.SenderEnv) tcp.Sender {
			return core.New(env, core.Config{Alpha: pr.Alpha, Beta: pr.Beta, InitialSsthresh: pr.ssthresh(), MaxData: pr.MaxDataPkts})
		}
	case TCPSACK:
		return func(env tcp.SenderEnv) tcp.Sender { return dupack.SACK(env, cfg) }
	case TCPReno:
		return func(env tcp.SenderEnv) tcp.Sender { return dupack.Reno(env, cfg) }
	case NewReno:
		return func(env tcp.SenderEnv) tcp.Sender { return dupack.NewReno(env, cfg) }
	case TDFR:
		return func(env tcp.SenderEnv) tcp.Sender { return dupack.TDFR(env, cfg) }
	case DSACKNM:
		return func(env tcp.SenderEnv) tcp.Sender { return dupack.DSACKNM(env, cfg) }
	case DSACKIn1:
		return func(env tcp.SenderEnv) tcp.Sender { return dupack.DSACKInc1(env, cfg) }
	case DSACKInN:
		return func(env tcp.SenderEnv) tcp.Sender { return dupack.DSACKIncN(env, cfg) }
	case DSACKEW:
		return func(env tcp.SenderEnv) tcp.Sender { return dupack.DSACKEWMA(env, cfg) }
	case TCPDOOR:
		return func(env tcp.SenderEnv) tcp.Sender { return dupack.DOOR(env, cfg) }
	case Eifel:
		return func(env tcp.SenderEnv) tcp.Sender { return dupack.Eifel(env, cfg) }
	default:
		panic(fmt.Sprintf("workload: unknown protocol %q", name))
	}
}

// Fig6Protocols returns the protocol set of the paper's Figure 6, in the
// figure's left-to-right order.
func Fig6Protocols() []string {
	return []string{TCPPR, TDFR, DSACKNM, DSACKIn1, DSACKInN, DSACKEW}
}

// AllProtocols returns every registered protocol label.
func AllProtocols() []string {
	return []string{TCPPR, TCPSACK, TCPReno, NewReno, TDFR, DSACKNM, DSACKIn1, DSACKInN, DSACKEW, TCPDOOR, Eifel}
}

// Known reports whether name is a registered protocol label.
func Known(name string) bool {
	for _, p := range AllProtocols() {
		if p == name {
			return true
		}
	}
	return false
}

// Flow wraps a tcp.Flow with measurement bookkeeping.
type Flow struct {
	*tcp.Flow
	// Protocol is the variant label this flow runs.
	Protocol string

	startBytes int64
	endBytes   int64
}

// NewFlow attaches the named protocol's sender to a wired tcp.Flow and
// schedules its start.
func NewFlow(f *tcp.Flow, protocol string, pr PRParams, startAt sim.Time) *Flow {
	f.Attach(Factory(protocol, pr))
	f.Start(startAt)
	return &Flow{Flow: f, Protocol: protocol}
}

// MarkWindow schedules goodput snapshots at from and to; after the
// simulation has run past to, WindowBytes returns the unique bytes
// received inside [from, to] — the paper measures "total data sent during
// the last 60 seconds" this way.
func (f *Flow) MarkWindow(sched *sim.Scheduler, from, to sim.Time) {
	sched.At(from, func() { f.startBytes = f.UniqueBytes() })
	sched.At(to, func() { f.endBytes = f.UniqueBytes() })
}

// WindowBytes returns the bytes accumulated in the marked window.
func (f *Flow) WindowBytes() int64 { return f.endBytes - f.startBytes }

// StaggeredStarts returns n start times spread uniformly over spread
// beginning at base, in flow order. Staggering avoids the synchronized
// slow-start stampede the paper's long-lived flows would not exhibit.
func StaggeredStarts(n int, base sim.Time, spread time.Duration) []sim.Time {
	out := make([]sim.Time, n)
	for i := range out {
		if n > 1 {
			out[i] = base + time.Duration(int64(spread)*int64(i)/int64(n))
		} else {
			out[i] = base
		}
	}
	return out
}

// ByProtocol groups window-throughput values (bits/s) by protocol label,
// with deterministic ordering of the labels.
func ByProtocol(flows []*Flow, window time.Duration) (labels []string, series map[string][]float64) {
	series = make(map[string][]float64)
	for _, f := range flows {
		bps := float64(f.WindowBytes()) * 8 / window.Seconds()
		series[f.Protocol] = append(series[f.Protocol], bps)
	}
	labels = make([]string, 0, len(series))
	for l := range series {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	return labels, series
}
