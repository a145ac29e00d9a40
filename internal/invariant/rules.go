package invariant

import (
	"fmt"
	"math"
	"time"

	"tcppr/internal/core"
	"tcppr/internal/sim"
	"tcppr/internal/tcp"
	"tcppr/internal/tcp/dupack"
	"tcppr/internal/workload"
)

// rfcSender is the probe surface shared by the dupACK senders of
// tcp/dupack: Reno, NewReno and TD-FR are a RenoSender, TCP-SACK and the
// DSACK variants a SACKSender, and DOOR and Eifel wrap a RenoSender. A
// sender type that lacks one of these methods silently gets no RFC rules,
// so every type is asserted below.
type rfcSender interface {
	Cwnd() float64
	Una() int64
	InRecovery() bool
	SRTT() time.Duration
	RTO() time.Duration
	RTOBounds() (min, max time.Duration)
}

var (
	_ rfcSender = (*dupack.RenoSender)(nil)
	_ rfcSender = (*dupack.SACKSender)(nil)
	_ rfcSender = (*dupack.DOORSender)(nil)
	_ rfcSender = (*dupack.EifelSender)(nil)
)

// flowState carries one flow's conformance state: conservation ledgers,
// receiver-side ACK checks, and (when the sender type is recognized) the
// per-variant sender discipline.
type flowState struct {
	c     *Checker
	f     *tcp.Flow
	name  string
	proto string

	// Conservation ledgers (drops are filled in by the link watches).
	dataSent, dataRecv, dataDropped uint64
	ackSent, ackRecv, ackDropped    uint64
	dataTripped, ackTripped         bool

	// Receiver-side ACK stream.
	lastCumSent int64
	haveCumSent bool

	// Sender-agnostic segment stream.
	lastTxSeq int64

	// Abort lifecycle (RFC 1122 §4.2.3.5).
	aborted     bool
	abortAt     sim.Time
	abortReason tcp.AbortReason

	pr  *prState
	rfc *rfcState
}

func newFlowState(c *Checker, f *tcp.Flow, protocol string) *flowState {
	fs := &flowState{c: c, f: f, proto: protocol,
		name: fmt.Sprintf("flow %d (%s)", f.ID, protocol)}
	switch snd := f.Sender().(type) {
	case *core.Sender:
		fs.pr = newPRState(fs, snd)
	default:
		if rs, ok := snd.(rfcSender); ok {
			fs.rfc = newRFCState(fs, rs, protocol)
		}
	}
	return fs
}

func (fs *flowState) violatef(rule, format string, args ...any) {
	fs.c.violatef(fs.name, rule, format, args...)
}

// probe samples sender state at an event boundary; every hook handler
// calls it first so that state deltas are attributed to the events
// between two consecutive probes.
func (fs *flowState) probe() {
	if fs.pr != nil {
		fs.pr.probe()
	}
	if fs.rfc != nil {
		fs.rfc.probe()
	}
}

// checkConservation verifies the flow's packet ledger: receptions plus
// terminal drops can exceed sends only by the network-wide duplication
// count. Each direction reports at most once (a broken ledger stays
// broken for every later event).
func (fs *flowState) checkConservation(final bool) {
	if !fs.dataTripped && fs.dataRecv+fs.dataDropped > fs.dataSent {
		if fs.dataRecv+fs.dataDropped > fs.dataSent+fs.c.dupSlack() {
			fs.dataTripped = true
			fs.violatef("conserve-data",
				"received %d + dropped %d exceeds sent %d + duplicated %d",
				fs.dataRecv, fs.dataDropped, fs.dataSent, fs.c.dupSlack())
		}
	}
	if !fs.ackTripped && fs.ackRecv+fs.ackDropped > fs.ackSent {
		if fs.ackRecv+fs.ackDropped > fs.ackSent+fs.c.dupSlack() {
			fs.ackTripped = true
			fs.violatef("conserve-ack",
				"received %d + dropped %d exceeds sent %d + duplicated %d",
				fs.ackRecv, fs.ackDropped, fs.ackSent, fs.c.dupSlack())
		}
	}
	_ = final
}

func (fs *flowState) onDataSent(seg tcp.Seg, now sim.Time) {
	// An aborted connection transmits nothing, ever: the transmit seam
	// still fires the hook for refused segments precisely so this rule
	// can see a sender that keeps trying.
	if fs.aborted {
		fs.violatef("abort-silence",
			"data segment %d transmitted at %v after abort (%s at %v)",
			seg.Seq, now, fs.abortReason, fs.abortAt)
		return
	}
	fs.probe()
	fs.dataSent++

	// Every sender stamps segments with the send time and a strictly
	// increasing transmission counter.
	if seg.Stamp != now {
		fs.violatef("stamp", "segment %d stamped %v at send time %v", seg.Seq, seg.Stamp, now)
	}
	if seg.TxSeq != 0 {
		if seg.TxSeq <= fs.lastTxSeq {
			fs.violatef("txseq-monotone", "TxSeq %d after %d", seg.TxSeq, fs.lastTxSeq)
		}
		fs.lastTxSeq = seg.TxSeq
	}

	if fs.pr != nil {
		fs.pr.onDataSent(seg, now)
	}
	if fs.rfc != nil {
		fs.rfc.onDataSent(seg, now)
	}
}

func (fs *flowState) onDataRecv(seg tcp.Seg, now sim.Time) {
	fs.probe()
	fs.dataRecv++
	fs.checkConservation(false)
}

// onAckSent checks the emitted ACK against the receiver's own state. The
// hook fires after the receiver absorbed the triggering segment, so the
// ACK must agree with the post-update receiver exactly.
func (fs *flowState) onAckSent(ack tcp.Ack, now sim.Time) {
	fs.probe()
	fs.ackSent++
	recv := fs.f.Receiver()

	if ack.CumAck != recv.CumAck() {
		fs.violatef("ack-cum-state", "ACK carries cum %d, receiver holds %d", ack.CumAck, recv.CumAck())
	}
	if fs.haveCumSent && ack.CumAck < fs.lastCumSent {
		fs.violatef("ack-cum-monotone", "cumulative ACK moved back: %d after %d", ack.CumAck, fs.lastCumSent)
	}
	fs.lastCumSent, fs.haveCumSent = ack.CumAck, true

	ooo := recv.OOOBlocks()
	if len(ack.Blocks) > tcp.MaxSackBlocks {
		fs.violatef("sack-blocks", "%d SACK blocks exceeds the RFC 2018 limit %d", len(ack.Blocks), tcp.MaxSackBlocks)
	}
	for i, b := range ack.Blocks {
		if b.Start >= b.End {
			fs.violatef("sack-blocks", "malformed SACK block %v", b)
			continue
		}
		if b.Start < ack.CumAck {
			fs.violatef("sack-blocks", "SACK block %v below cumulative ACK %d", b, ack.CumAck)
		}
		if !containedInBlocks(b, ooo) {
			fs.violatef("sack-blocks", "SACK block %v not backed by receiver OOO data %v", b, ooo)
		}
		for _, prev := range ack.Blocks[:i] {
			if b.Start < prev.End && prev.Start < b.End {
				fs.violatef("sack-blocks", "overlapping SACK blocks %v and %v", prev, b)
			}
		}
	}
	if d := ack.DSACK; d != nil {
		if d.Start >= d.End {
			fs.violatef("dsack-block", "malformed DSACK block %v", *d)
		} else if d.End > ack.CumAck && !containedInBlocks(*d, ooo) {
			fs.violatef("dsack-block", "DSACK %v reports data neither below cum %d nor buffered %v", *d, ack.CumAck, ooo)
		}
	}
}

func (fs *flowState) onAckRecv(ack tcp.Ack, now sim.Time) {
	fs.probe()
	fs.ackRecv++
	if fs.rfc != nil {
		fs.rfc.onAckRecv(ack, now)
	}
	fs.checkConservation(false)
}

// onAbort checks the terminal transition itself: aborts fire once, an R2
// abort must actually have burned through the configured retransmission
// budget (no premature give-up), and every sender timer must already be
// cancelled when the hook runs — Flow.Abort stops the machinery before
// notifying, so a pending timer here is a leak.
func (fs *flowState) onAbort(reason tcp.AbortReason, now sim.Time) {
	fs.probe()
	if fs.aborted {
		fs.violatef("abort-once", "second abort (%s) after %s at %v", reason, fs.abortReason, fs.abortAt)
		return
	}
	fs.aborted, fs.abortReason, fs.abortAt = true, reason, now

	cfg := fs.f.AbortPolicy
	if reason == tcp.AbortR2 {
		if cfg.R2 <= 0 {
			fs.violatef("abort-r2", "R2 abort on a flow with no R2 policy")
		} else if got := fs.f.ConsecutiveTimeouts(); got < cfg.R2 {
			fs.violatef("abort-r2",
				"aborted after %d consecutive timeouts, policy requires %d", got, cfg.R2)
		}
	}
	fs.checkAbortQuiescent("abort-quiescent")
}

// checkAbortQuiescent asserts the aborted sender holds no pending timers
// or in-flight tracking.
func (fs *flowState) checkAbortQuiescent(rule string) {
	if q, ok := fs.f.Sender().(interface{ Quiescent() bool }); ok && !q.Quiescent() {
		fs.violatef(rule, "aborted sender still holds pending timers or in-flight state")
	}
}

// finishAbort re-checks quiescence at end of run: a timer re-armed any
// time after the abort would pass the instant check but show up here.
func (fs *flowState) finishAbort() {
	if fs.aborted {
		fs.checkAbortQuiescent("abort-quiescent-final")
	}
}

func containedInBlocks(b tcp.SackBlock, blocks []tcp.SackBlock) bool {
	for _, o := range blocks {
		if o.Start <= b.Start && o.End >= b.End {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// TCP-PR rules (paper Table 1 + §3.2)

// mxProbe is one (time, threshold) change point of the sender's mxrtt.
type mxProbe struct {
	at sim.Time
	mx time.Duration
}

type prState struct {
	fs *flowState
	s  *core.Sender

	lastCwnd  float64
	lastDrops uint64

	lastSent map[int64]sim.Time // per-seq last transmission time
	probes   []mxProbe          // mxrtt change points, time-ordered
	events   int                // prune pacing
}

func newPRState(fs *flowState, s *core.Sender) *prState {
	p := &prState{fs: fs, s: s, lastCwnd: s.Cwnd(), lastSent: make(map[int64]sim.Time)}
	p.probes = append(p.probes, mxProbe{at: fs.c.sched.Now(), mx: s.Mxrtt()})
	return p
}

// probe checks the "no cwnd reduction without a revealed drop" property:
// between two consecutive probes at most one sender step ran, so any
// window decrease must be accompanied by a DropsDetected increment.
func (p *prState) probe() {
	cw, drops := p.s.Cwnd(), p.s.DropsDetected
	if cw < p.lastCwnd-1e-9 && drops == p.lastDrops {
		p.fs.violatef("pr-cwnd-reduction",
			"cwnd cut %.3f -> %.3f with no drop detected (DropsDetected %d)", p.lastCwnd, cw, drops)
	}
	p.lastCwnd, p.lastDrops = cw, drops

	if mx := p.s.Mxrtt(); len(p.probes) == 0 || p.probes[len(p.probes)-1].mx != mx {
		p.probes = append(p.probes, mxProbe{at: p.fs.c.sched.Now(), mx: mx})
	}
}

func (p *prState) onDataSent(seg tcp.Seg, now sim.Time) {
	// Send gate: the sender's own flight estimate can exceed cwnd by at
	// most the packet just inserted.
	if est, cw := p.s.FlightEstimate(), p.s.Cwnd(); float64(est) > cw+1+1e-6 {
		p.fs.violatef("pr-flight-limit", "flight estimate %d exceeds cwnd %.3f + 1", est, cw)
	}

	if seg.Retx {
		// No retransmission before the mxrtt = β·ewrtt threshold has
		// elapsed since the previous transmission of the same sequence.
		// The threshold moves, so compare against the minimum value it
		// held anywhere in the elapsed window (conservative: a drop is
		// declared with the value current at declaration time, and the
		// retransmission can only leave later).
		if t0, ok := p.lastSent[seg.Seq]; ok {
			if minMx := p.minMxrttSince(t0); now-t0 < minMx {
				p.fs.violatef("pr-early-retx",
					"seq %d retransmitted %v after last send; threshold never fell below %v",
					seg.Seq, now-t0, minMx)
			}
		}
	}
	p.lastSent[seg.Seq] = now

	p.events++
	if p.events%1024 == 0 {
		p.prune()
	}
}

// minMxrttSince returns the smallest mxrtt in effect anywhere in [t0, now]:
// the change point active at t0, every change point since, and the current
// value.
func (p *prState) minMxrttSince(t0 sim.Time) time.Duration {
	min := p.s.Mxrtt()
	haveEff := false
	var eff time.Duration
	for _, pr := range p.probes {
		if pr.at <= t0 {
			eff, haveEff = pr.mx, true
			continue
		}
		if pr.mx < min {
			min = pr.mx
		}
	}
	if haveEff && eff < min {
		min = eff
	}
	return min
}

// prune drops acknowledged send records and mxrtt change points that no
// outstanding send can reach back to.
func (p *prState) prune() {
	una := p.s.Una()
	oldest := sim.Time(math.MaxInt64)
	for seq, at := range p.lastSent {
		if seq < una {
			delete(p.lastSent, seq)
			continue
		}
		if at < oldest {
			oldest = at
		}
	}
	// Keep the last change point at or before the oldest outstanding send
	// (it is the value in effect there) and everything after.
	cut := 0
	for i, pr := range p.probes {
		if pr.at <= oldest {
			cut = i
		}
	}
	if cut > 0 {
		p.probes = append(p.probes[:0], p.probes[cut:]...)
	}
}

// ---------------------------------------------------------------------------
// RFC-family rules (sack, reno, NewReno, TD-FR, DSACK policies, DOOR, Eifel)

type rfcState struct {
	fs *flowState
	s  rfcSender

	// checkFloor is off for TD-FR: its trigger legitimately retransmits
	// from a sub-RTO timer, and the sender type alone cannot tell it apart
	// from plain NewReno.
	checkFloor bool

	minRTO, maxRTO time.Duration

	lastUna       int64
	maxCumSeen    int64
	dupTicks      int
	lastAckAt     sim.Time
	haveAck       bool
	lastAdvanceAt sim.Time
	haveStart     bool

	everRetx    tcp.IntervalSet
	karnPending bool
	karnSRTT    time.Duration
}

func newRFCState(fs *flowState, s rfcSender, protocol string) *rfcState {
	min, max := s.RTOBounds()
	return &rfcState{
		fs: fs, s: s,
		checkFloor: protocol != workload.TDFR,
		minRTO:     min, maxRTO: max,
		lastUna: s.Una(),
	}
}

// probe validates sender state at an event boundary: una monotone and
// never beyond the best cumulative ACK seen, RTO inside its clamp, and the
// deferred Karn comparison (the first probe after an ACK echoing a
// retransmitted sequence sees the post-processing SRTT).
func (r *rfcState) probe() {
	una := r.s.Una()
	if una < r.lastUna {
		r.fs.violatef("una-monotone", "una moved back: %d after %d", una, r.lastUna)
	}
	if una > r.maxCumSeen {
		r.fs.violatef("una-beyond-ack", "una %d beyond highest cumulative ACK received %d", una, r.maxCumSeen)
	}
	r.lastUna = una

	if rto := r.s.RTO(); rto < r.minRTO || rto > r.maxRTO {
		r.fs.violatef("rto-bounds", "RTO %v outside [%v, %v]", rto, r.minRTO, r.maxRTO)
	}

	if r.karnPending {
		if srtt := r.s.SRTT(); srtt != r.karnSRTT {
			r.fs.violatef("karn", "SRTT changed %v -> %v on an ACK echoing a retransmitted sequence",
				r.karnSRTT, srtt)
		}
		r.karnPending = false
	}
}

func (r *rfcState) onAckRecv(ack tcp.Ack, now sim.Time) {
	r.lastAckAt, r.haveAck = now, true
	if ack.CumAck > r.maxCumSeen {
		r.maxCumSeen = ack.CumAck
		r.lastAdvanceAt = now
		r.dupTicks = 0
		r.everRetx.DropBelow(ack.CumAck)
	} else if ack.CumAck == r.s.Una() {
		r.dupTicks++
	}
	// Karn's rule: an ACK whose echoed sequence was ever retransmitted
	// must not produce an RTT sample. The comparison runs at the next
	// probe, which sees the post-processing SRTT.
	if r.everRetx.Contains(ack.EchoSeq) {
		r.karnPending = true
		r.karnSRTT = r.s.SRTT()
	}
}

func (r *rfcState) onDataSent(seg tcp.Seg, now sim.Time) {
	if !r.haveStart {
		// The first transmission doubles as the floor-check anchor until
		// the first cumulative advance.
		r.lastAdvanceAt = now
		r.haveStart = true
	}

	if seg.Retx {
		r.everRetx.Add(seg.Seq, seg.Seq+1)
		// RFC 6298 floor: a retransmission not triggered by an arriving
		// ACK is timeout-driven, and the retransmission timer is re-armed
		// on every cumulative advance — so the timeout can fire no sooner
		// than minRTO after the last advance.
		atAckInstant := r.haveAck && now == r.lastAckAt
		if r.checkFloor && !atAckInstant {
			if elapsed := now - r.lastAdvanceAt; elapsed < r.minRTO {
				r.fs.violatef("rto-floor",
					"timeout retransmission of seq %d only %v after the last cumulative advance (floor %v)",
					seg.Seq, elapsed, r.minRTO)
			}
		}
		return
	}

	// Window discipline outside recovery: new data may not overshoot
	// una + cwnd beyond limited transmit (bounded by the duplicate ACKs
	// seen since the last advance) plus a small rounding margin.
	if !r.s.InRecovery() {
		una, cw := r.s.Una(), r.s.Cwnd()
		if float64(seg.Seq+1-una) > cw+float64(r.dupTicks)+3+1e-6 {
			r.fs.violatef("cwnd-limit",
				"new data seq %d is %d beyond una %d with cwnd %.3f and %d dup ACKs",
				seg.Seq, seg.Seq+1-una, una, cw, r.dupTicks)
		}
	}
}
