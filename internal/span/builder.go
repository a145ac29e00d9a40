package span

import (
	"io"
	"time"

	"tcppr/internal/sim"
)

// TraceBuilder accumulates Chrome trace events for producers outside the
// packet-span pipeline — engine telemetry lanes, experiment overlays —
// and writes them with the same encoder and ordering rules as
// WriteChromeTrace, so the output satisfies ValidateChromeTrace and loads
// in ui.perfetto.dev. Timestamps are virtual (sim.Time), putting builder
// tracks on the same axis as the packet spans.
//
// The zero value is ready to use. A TraceBuilder is not safe for
// concurrent use.
type TraceBuilder struct {
	events []chromeEvent
}

// Process names a process (one top-level Perfetto group). Emit it once
// per pid, before the pid's first event.
func (b *TraceBuilder) Process(pid int, name string) {
	b.events = append(b.events, chromeEvent{
		Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
		Args: map[string]any{"name": name},
	})
}

// Complete records a complete ("X") span covering [from, to].
func (b *TraceBuilder) Complete(pid, tid int, name string, from, to sim.Time, args map[string]any) {
	dur := to - from
	if dur < 0 {
		dur = 0
	}
	b.events = append(b.events, chromeEvent{
		Name: name, Ph: "X", Ts: us(from), Dur: time.Duration(dur).Seconds() * 1e6,
		Pid: pid, Tid: tid, Args: args,
	})
}

// Instant records an instant event; global selects the whole-trace scope
// ("g") instead of the thread scope ("t").
func (b *TraceBuilder) Instant(pid, tid int, name string, at sim.Time, global bool, args map[string]any) {
	scope := "t"
	if global {
		scope = "g"
	}
	b.events = append(b.events, chromeEvent{
		Name: name, Ph: "i", S: scope, Ts: us(at), Pid: pid, Tid: tid, Args: args,
	})
}

// Counter records a counter sample; values maps series name to value and
// renders as a stacked counter track.
func (b *TraceBuilder) Counter(pid int, name string, at sim.Time, values map[string]any) {
	b.events = append(b.events, chromeEvent{
		Name: name, Ph: "C", Ts: us(at), Pid: pid, Tid: 0, Args: values,
	})
}

// Write renders the accumulated events as Chrome trace-event JSON, sorted
// like WriteChromeTrace: metadata first, then by timestamp.
func (b *TraceBuilder) Write(w io.Writer) error {
	sortChromeEvents(b.events)
	return encodeChromeTrace(w, b.events)
}
