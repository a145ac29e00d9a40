// Package trace records per-packet events from a flow — the equivalent of
// ns-2's trace files — and derives reordering metrics from them: reorder
// rate, reorder extent (how far early a late packet's successors got), and
// a late-time histogram. Experiments use it for debugging and for
// quantifying how much reordering each ε setting actually produces.
package trace

import (
	"fmt"
	"io"
	"sort"
	"time"

	"tcppr/internal/sim"
	"tcppr/internal/tcp"
)

// Kind labels one trace event.
type Kind byte

// Event kinds.
const (
	DataSent Kind = 's'
	DataRecv Kind = 'r'
	AckSent  Kind = 'a'
	AckRecv  Kind = 'k'
)

// Event is one recorded packet event.
type Event struct {
	At   sim.Time
	Kind Kind
	Seq  int64
	Cum  int64 // ACK events: cumulative ack value
	Retx bool
}

// Recorder captures a flow's events through tcp.FlowHooks. Attach before
// the simulation starts:
//
//	rec := trace.NewRecorder()
//	rec.Attach(flow)
type Recorder struct {
	Events []Event

	// arrivals is maintained at append time so ReorderRate stays O(1)
	// however long the event log grows.
	arrivals int // original (non-retx) data arrivals

	// maxRecvSeq tracks the highest data sequence seen at the receiver,
	// for online reorder accounting.
	maxRecvSeq   int64
	seenAny      bool
	reorderCount int
	extents      []int64
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// record appends one event and updates the running counts.
func (r *Recorder) record(e Event) {
	r.Events = append(r.Events, e)
	if e.Kind == DataRecv && !e.Retx {
		r.arrivals++
	}
}

// Hooks returns the recorder's observation callbacks, for composing with
// other observers via tcp.FlowHooks.Chain.
func (r *Recorder) Hooks() tcp.FlowHooks {
	return tcp.FlowHooks{
		OnDataSent: func(seg tcp.Seg, now sim.Time) {
			r.record(Event{At: now, Kind: DataSent, Seq: seg.Seq, Retx: seg.Retx})
		},
		OnDataRecv: func(seg tcp.Seg, now sim.Time) {
			r.record(Event{At: now, Kind: DataRecv, Seq: seg.Seq, Retx: seg.Retx})
			r.noteArrival(seg)
		},
		OnAckSent: func(ack tcp.Ack, now sim.Time) {
			r.record(Event{At: now, Kind: AckSent, Seq: ack.EchoSeq, Cum: ack.CumAck})
		},
		OnAckRecv: func(ack tcp.Ack, now sim.Time) {
			r.record(Event{At: now, Kind: AckRecv, Seq: ack.EchoSeq, Cum: ack.CumAck})
		},
	}
}

// Attach wires the recorder into a flow's hooks. Any previously installed
// hooks are chained after the recorder's.
func (r *Recorder) Attach(f *tcp.Flow) {
	f.Hooks = r.Hooks().Chain(f.Hooks)
}

// noteArrival updates the online reorder metrics: an arrival below the
// maximum sequence already seen is reordered, with extent equal to how far
// below the maximum it landed.
func (r *Recorder) noteArrival(seg tcp.Seg) {
	if seg.Retx {
		return // retransmissions are late by construction, not reordered
	}
	if !r.seenAny || seg.Seq > r.maxRecvSeq {
		r.maxRecvSeq = seg.Seq
		r.seenAny = true
		return
	}
	r.reorderCount++
	r.extents = append(r.extents, r.maxRecvSeq-seg.Seq)
}

// ReorderRate returns the fraction of original (non-retransmitted) data
// arrivals that were out of order.
func (r *Recorder) ReorderRate() float64 {
	if r.arrivals == 0 {
		return 0
	}
	return float64(r.reorderCount) / float64(r.arrivals)
}

// ReorderExtents returns the distribution of reorder extents (in packets):
// min, median, max. All zero when no reordering occurred.
func (r *Recorder) ReorderExtents() (min, median, max int64) {
	if len(r.extents) == 0 {
		return 0, 0, 0
	}
	s := append([]int64(nil), r.extents...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[0], s[len(s)/2], s[len(s)-1]
}

// WriteTSV dumps the event log in an ns-2-like one-line-per-event format:
// time kind seq cum retx.
func (r *Recorder) WriteTSV(w io.Writer) error {
	for _, e := range r.Events {
		retx := 0
		if e.Retx {
			retx = 1
		}
		if _, err := fmt.Fprintf(w, "%.6f\t%c\t%d\t%d\t%d\n",
			time.Duration(e.At).Seconds(), e.Kind, e.Seq, e.Cum, retx); err != nil {
			return err
		}
	}
	return nil
}
