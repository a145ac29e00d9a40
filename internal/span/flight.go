package span

import (
	"fmt"
	"io"
	"time"

	"tcppr/internal/faults"
	"tcppr/internal/invariant"
)

// WriteTSV renders span events as a tcptrace-style hop-level TSV: one line
// per event, tab-separated, with a '#' header. It is both the
// flight-recorder dump table and the -trace-tsv export format.
func WriteTSV(w io.Writer, events []Event) error {
	if _, err := fmt.Fprintln(w, "# columns: time\tkind\ttrace\tparent\tflow\tseq\tretx\tlink\tdetail"); err != nil {
		return err
	}
	for _, e := range events {
		if err := writeTSVLine(w, e); err != nil {
			return err
		}
	}
	return nil
}

func writeTSVLine(w io.Writer, e Event) error {
	retx := 0
	if e.Retx {
		retx = 1
	}
	detail := e.Note
	switch e.Kind {
	case Enqueue:
		detail = fmt.Sprintf("tx_end=%.6f arrive=%.6f", e.TxEnd.Seconds(), e.Arrive.Seconds())
	case Drop:
		detail = e.Cause.String()
	case Cwnd:
		detail = fmt.Sprintf("cwnd=%.2f ssthresh=%.2f", e.A, e.B)
	case RTT:
		detail = fmt.Sprintf("estimate=%.6f threshold=%.6f", e.A, e.B)
	case Recovery:
		if e.Enter {
			detail = "enter " + e.Note
		} else {
			detail = "exit " + e.Note
		}
	case Deliver:
		if e.Final {
			detail = "final"
		}
	case Fault:
		detail = e.Note
	case Repair:
		if e.A > 0 {
			detail = fmt.Sprintf("%s held=%.6f", e.Note, e.A)
		}
	}
	_, err := fmt.Fprintf(w, "%.6f\t%s\t%d\t%d\t%d\t%d\t%d\t%s\t%s\n",
		time.Duration(e.At).Seconds(), e.Kind, e.Trace, e.Parent,
		e.Flow, e.Seq, retx, e.Link, detail)
	return err
}

// DefaultMaxDumps caps automatic flight-recorder dumps per run so a
// violation storm (or a chatty fault timeline) doesn't flood the sink.
const DefaultMaxDumps = 5

// FlightRecorder watches a Collector's ring and dumps its tail — plus the
// causal trail of the implicated packet — when something goes wrong:
// an invariant violation (ArmChecker), an applied fault (ArmTimeline,
// optional), or a forced Dump (runobs forces one on a panic). The ring
// keeps recording between dumps; each dump is a snapshot of the last
// TailLen events at the moment of the trigger, which is exactly when the
// implicated packet's journey is still retained.
type FlightRecorder struct {
	c *Collector
	w io.Writer

	// TailLen is how many trailing events each dump includes (default:
	// the whole ring).
	TailLen int
	// MaxDumps caps automatic dumps (default DefaultMaxDumps); forced
	// dumps (Dump) ignore the cap.
	MaxDumps int

	// DumpOnFault makes ArmTimeline dump on every applied fault instead of
	// only recording it as a ring event.
	DumpOnFault bool

	dumps      int
	suppressed int
}

// NewFlightRecorder wraps a collector; dumps go to w.
func NewFlightRecorder(c *Collector, w io.Writer) *FlightRecorder {
	return &FlightRecorder{c: c, w: w, MaxDumps: DefaultMaxDumps}
}

// Dumps returns how many dumps were written.
func (fr *FlightRecorder) Dumps() int { return fr.dumps }

// ArmChecker chains onto the checker's violation hook: every violation is
// recorded as a Mark event, and (up to MaxDumps) dumped with the causal
// trail of the flow's most recent packet — the packet implicated in the
// breach.
func (fr *FlightRecorder) ArmChecker(ck *invariant.Checker) {
	prev := ck.OnViolation
	ck.OnViolation = func(v invariant.Violation) {
		if prev != nil {
			prev(v)
		}
		fr.onViolation(v)
	}
}

func (fr *FlightRecorder) onViolation(v invariant.Violation) {
	note := "violation " + v.Rule
	if v.Flow != "" {
		note += " @ " + v.Flow
	}
	fr.c.Mark(note)
	if fr.capped() {
		return
	}
	trace := fr.implicated(v.Flow)
	fr.dump(fmt.Sprintf("invariant violation: %s", v), trace)
}

// implicated resolves a violation's Flow label ("flow 3 (TCP-PR)", a link
// name, or "") to the trace of the most recent matching packet event.
func (fr *FlightRecorder) implicated(where string) uint64 {
	ids, _ := fr.c.Flows()
	for _, id := range ids {
		if fr.c.FlowLabel(id) == where {
			return fr.c.LastTraceForFlow(id)
		}
	}
	// Link-level rule: last packet event on that link.
	ev := fr.c.Events()
	for i := len(ev) - 1; i >= 0; i-- {
		if ev[i].Trace != 0 && ev[i].Link == where {
			return ev[i].Trace
		}
	}
	return 0
}

// ArmTimeline chains onto the timeline's event hook so every applied fault
// becomes a ring event (and, with DumpOnFault, a dump).
func (fr *FlightRecorder) ArmTimeline(tl *faults.Timeline) {
	prev := tl.OnEvent
	tl.OnEvent = func(ev faults.Event) {
		if prev != nil {
			prev(ev)
		}
		fr.c.FaultApplied(ev.At, ev.Link, string(ev.Kind)+": "+ev.Note)
		if fr.DumpOnFault && !fr.capped() {
			fr.dump("fault applied: "+string(ev.Kind)+" "+ev.Link+" ("+ev.Note+")", 0)
		}
	}
}

// Dump writes a dump now, with the given reason (ignores MaxDumps).
func (fr *FlightRecorder) Dump(reason string) { fr.dumpForced(reason, 0) }

func (fr *FlightRecorder) capped() bool {
	max := fr.MaxDumps
	if max <= 0 {
		max = DefaultMaxDumps
	}
	if fr.dumps >= max {
		fr.suppressed++
		return true
	}
	return false
}

func (fr *FlightRecorder) dump(reason string, trace uint64) {
	fr.dumps++
	fr.write(reason, trace)
}

func (fr *FlightRecorder) dumpForced(reason string, trace uint64) {
	fr.dumps++
	fr.write(reason, trace)
}

func (fr *FlightRecorder) write(reason string, trace uint64) {
	if fr.w == nil {
		return
	}
	now := time.Duration(fr.c.sched.Now()).Seconds()
	fmt.Fprintf(fr.w, "=== flight recorder dump #%d @ t=%.6f: %s ===\n", fr.dumps, now, reason)
	tail := fr.c.Tail(fr.TailLen)
	fmt.Fprintf(fr.w, "last %d event(s) of %d emitted (%d overwritten):\n",
		len(tail), fr.c.Emitted(), fr.c.Overwritten())
	WriteTSV(fr.w, tail)
	if trace != 0 {
		trail := fr.c.TrailOf(trace)
		fmt.Fprintf(fr.w, "causal trail of implicated packet (trace %d, %d event(s)):\n",
			trace, len(trail))
		WriteTSV(fr.w, trail)
	}
	fmt.Fprintf(fr.w, "=== end dump #%d ===\n", fr.dumps)
}
