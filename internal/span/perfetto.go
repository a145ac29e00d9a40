package span

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"tcppr/internal/sim"
)

// Chrome trace-event JSON (the "JSON Array Format" with a traceEvents
// wrapper), the format Perfetto's legacy importer loads directly. Each
// link and each flow becomes its own process: links carry nestable async
// b/e spans per packet (queue → tx → prop, grouped by trace ID) plus drop
// instants; flows carry cwnd/rtt counter tracks plus send/timer/recovery
// instants; faults and marks land on a global "sim" process.

// chromeEvent is one trace-event record.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`            // microseconds
	Dur  float64        `json:"dur,omitempty"` // microseconds ("X" complete events only)
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the file wrapper.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Process ID layout of the exported trace.
const (
	pidSim      = 1    // faults, marks
	pidLinkBase = 10   // pidLinkBase + link index (first-seen order)
	pidFlowBase = 1000 // pidFlowBase + flow ID
)

func us(t sim.Time) float64 { return time.Duration(t).Seconds() * 1e6 }

func traceID(tr uint64) string { return fmt.Sprintf("0x%x", tr) }

// WriteChromeTrace renders the events as Chrome trace-event JSON. Events
// must be in chronological order (Collector.Events returns them so); the
// output is sorted by timestamp with metadata records first, so the file
// satisfies ValidateChromeTrace and loads cleanly in Perfetto.
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTrace(w, c.Events(), c)
}

// WriteChromeTrace renders a span event slice as Chrome trace-event JSON.
// labels may be nil; when set it supplies flow display labels.
func WriteChromeTrace(w io.Writer, events []Event, labels *Collector) error {
	var out []chromeEvent
	meta := func(pid int, name string) {
		out = append(out,
			chromeEvent{Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
				Args: map[string]any{"name": name}},
		)
	}
	meta(pidSim, "sim")

	linkPid := map[string]int{}
	pidOf := func(link string) int {
		if pid, ok := linkPid[link]; ok {
			return pid
		}
		pid := pidLinkBase + len(linkPid)
		linkPid[link] = pid
		meta(pid, "link "+link)
		return pid
	}
	flowSeen := map[int32]bool{}
	flowPid := func(flow int32) int {
		pid := pidFlowBase + int(flow)
		if !flowSeen[flow] {
			flowSeen[flow] = true
			name := fmt.Sprintf("flow %d", flow)
			if labels != nil {
				if l := labels.FlowLabel(flow); l != "" {
					name = l
				}
			}
			meta(pid, name)
		}
		return pid
	}

	pktArgs := func(e Event) map[string]any {
		a := map[string]any{
			"trace": e.Trace, "flow": e.Flow, "seq": e.Seq, "size": e.Size,
		}
		if e.Parent != 0 {
			a["parent"] = e.Parent
		}
		if e.Retx {
			a["retx"] = true
		}
		return a
	}
	span := func(pid int, tr uint64, name string, from, to sim.Time, args map[string]any) {
		id := traceID(tr)
		out = append(out,
			chromeEvent{Name: name, Cat: "pkt", Ph: "b", Ts: us(from), Pid: pid, Tid: 0, ID: id, Args: args},
			chromeEvent{Name: name, Cat: "pkt", Ph: "e", Ts: us(to), Pid: pid, Tid: 0, ID: id},
		)
	}

	for _, e := range events {
		switch e.Kind {
		case Send:
			out = append(out, chromeEvent{
				Name: "send " + e.Note, Ph: "i", S: "t", Ts: us(e.At),
				Pid: flowPid(e.Flow), Tid: 0, Args: pktArgs(e),
			})
		case Enqueue:
			pid := pidOf(e.Link)
			args := pktArgs(e)
			if e.TxStart > e.At {
				span(pid, e.Trace, "queue", e.At, e.TxStart, args)
				args = nil
			}
			span(pid, e.Trace, "tx", e.TxStart, e.TxEnd, args)
			span(pid, e.Trace, "prop", e.TxEnd, e.Arrive, nil)
		case Dup:
			pid := pidOf(e.Link)
			out = append(out, chromeEvent{
				Name: "dup", Ph: "i", S: "t", Ts: us(e.At),
				Pid: pid, Tid: 0, Args: pktArgs(e),
			})
			span(pid, e.Trace, "prop", e.TxEnd, e.Arrive, nil)
		case Drop:
			out = append(out, chromeEvent{
				Name: "drop: " + e.Cause.String(), Ph: "i", S: "t", Ts: us(e.At),
				Pid: pidOf(e.Link), Tid: 0, Args: pktArgs(e),
			})
		case Deliver:
			// Deliver bounds the prop span already emitted at Enqueue; a
			// final-hop delivery additionally marks the flow track so
			// end-to-end arrival shows next to the sender state.
			if e.Final {
				out = append(out, chromeEvent{
					Name: "recv", Ph: "i", S: "t", Ts: us(e.At),
					Pid: flowPid(e.Flow), Tid: 0, Args: pktArgs(e),
				})
			}
		case Cwnd:
			out = append(out, chromeEvent{
				Name: "cwnd", Ph: "C", Ts: us(e.At), Pid: flowPid(e.Flow), Tid: 0,
				Args: map[string]any{"cwnd": e.A, "ssthresh": e.B},
			})
		case RTT:
			out = append(out, chromeEvent{
				Name: "rtt", Ph: "C", Ts: us(e.At), Pid: flowPid(e.Flow), Tid: 0,
				Args: map[string]any{"estimate_ms": e.A * 1e3, "threshold_ms": e.B * 1e3},
			})
		case LossTimer:
			out = append(out, chromeEvent{
				Name: "loss-timer: " + e.Note, Ph: "i", S: "t", Ts: us(e.At),
				Pid: flowPid(e.Flow), Tid: 0, Args: map[string]any{"seq": e.Seq},
			})
		case Recovery:
			name := "recovery-exit: " + e.Note
			if e.Enter {
				name = "recovery-enter: " + e.Note
			}
			out = append(out, chromeEvent{
				Name: name, Ph: "i", S: "t", Ts: us(e.At), Pid: flowPid(e.Flow), Tid: 0,
			})
		case Fault:
			out = append(out, chromeEvent{
				Name: "fault: " + e.Note, Ph: "i", S: "g", Ts: us(e.At),
				Pid: pidSim, Tid: 0, Args: map[string]any{"link": e.Link},
			})
		case Mark:
			out = append(out, chromeEvent{
				Name: e.Note, Ph: "i", S: "g", Ts: us(e.At), Pid: pidSim, Tid: 0,
			})
		case Abort:
			out = append(out, chromeEvent{
				Name: "abort: " + e.Note, Ph: "i", S: "t", Ts: us(e.At),
				Pid: flowPid(e.Flow), Tid: 0,
			})
		}
	}

	sortChromeEvents(out)
	return encodeChromeTrace(w, out)
}

// encodeChromeTrace writes the shared file wrapper; WriteChromeTrace and
// TraceBuilder.Write both end here so every exported trace has identical
// framing.
func encodeChromeTrace(w io.Writer, out []chromeEvent) error {
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: out, DisplayTimeUnit: "ms"})
}

// sortChromeEvents orders a trace for monotone timestamps: metadata first,
// then by timestamp; the stable sort keeps each b before its e at equal
// timestamps (they are emitted in that order).
func sortChromeEvents(out []chromeEvent) {
	sort.SliceStable(out, func(i, j int) bool {
		mi, mj := out[i].Ph == "M", out[j].Ph == "M"
		if mi != mj {
			return mi
		}
		return out[i].Ts < out[j].Ts
	})
}

// ValidateChromeTrace checks that r holds well-formed Chrome trace-event
// JSON with monotone non-decreasing timestamps and matched begin/end pairs
// — the properties CI gates exported traces on. It accepts both the
// traceEvents wrapper and a bare event array, and validates sync (B/E,
// per pid+tid) and nestable async (b/e, per pid+cat+id) pairing. It
// returns the number of events checked.
func ValidateChromeTrace(r io.Reader) (int, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return 0, err
	}
	var events []chromeEvent
	var wrapper struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &wrapper); err == nil && wrapper.TraceEvents != nil {
		events = wrapper.TraceEvents
	} else if err := json.Unmarshal(raw, &events); err != nil {
		return 0, fmt.Errorf("span: trace is neither a traceEvents object nor an event array: %w", err)
	}

	type key struct {
		pid     int
		tid     int
		cat, id string
	}
	syncDepth := map[key]int{}
	asyncDepth := map[key]int{}
	lastTs := -1.0
	for i, e := range events {
		if e.Ph == "" {
			return i, fmt.Errorf("span: event %d (%q) has no phase", i, e.Name)
		}
		if e.Ph == "M" {
			continue
		}
		if e.Name == "" {
			return i, fmt.Errorf("span: event %d has no name", i)
		}
		if e.Ts < 0 {
			return i, fmt.Errorf("span: event %d (%q) has negative timestamp %v", i, e.Name, e.Ts)
		}
		if e.Ts < lastTs {
			return i, fmt.Errorf("span: timestamps not monotone at event %d (%q): %v after %v",
				i, e.Name, e.Ts, lastTs)
		}
		lastTs = e.Ts
		switch e.Ph {
		case "B":
			syncDepth[key{pid: e.Pid, tid: e.Tid}]++
		case "E":
			k := key{pid: e.Pid, tid: e.Tid}
			syncDepth[k]--
			if syncDepth[k] < 0 {
				return i, fmt.Errorf("span: unmatched E at event %d (pid %d tid %d)", i, e.Pid, e.Tid)
			}
		case "b":
			asyncDepth[key{pid: e.Pid, cat: e.Cat, id: e.ID}]++
		case "e":
			k := key{pid: e.Pid, cat: e.Cat, id: e.ID}
			asyncDepth[k]--
			if asyncDepth[k] < 0 {
				return i, fmt.Errorf("span: unmatched async end at event %d (pid %d id %s name %q)",
					i, e.Pid, e.ID, e.Name)
			}
		case "i", "I", "C", "X", "n", "s", "t", "f":
			// instants, counters, complete events, async steps: no pairing
		default:
			return i, fmt.Errorf("span: event %d (%q) has unsupported phase %q", i, e.Name, e.Ph)
		}
	}
	for k, d := range syncDepth {
		if d != 0 {
			return len(events), fmt.Errorf("span: %d unclosed B span(s) on pid %d tid %d", d, k.pid, k.tid)
		}
	}
	for k, d := range asyncDepth {
		if d != 0 {
			return len(events), fmt.Errorf("span: %d unclosed async span(s) on pid %d id %s", d, k.pid, k.id)
		}
	}
	return len(events), nil
}
