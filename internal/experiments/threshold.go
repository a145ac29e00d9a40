package experiments

import (
	"fmt"
	"sort"
	"time"

	"tcppr/internal/core"
	"tcppr/internal/runobs"
	"tcppr/internal/sim"
	"tcppr/internal/trace"
	"tcppr/internal/workload"
)

// thresholdSweep answers the question the paper defers to its technical
// report [5]: how should α and β be chosen so that mxrtt = β·ewrtt is
// "only surpassed when a packet has actually been lost"? It records the
// timing of a real TCP-PR flow under full multipath reordering (ε = 0,
// Fig 5 topology), then replays the ewrtt estimator over it offline for
// each β and reports how often a delivered packet would have been falsely
// declared dropped, and the detection headroom.
func thresholdSweep(d Durations, obs *runobs.Session) ([]*Table, error) {
	recs, err := runSweep(sweep[struct{}]{
		name: "ext-threshold", d: d, obs: obs,
		build: func(c *cell[struct{}]) world { return multipath(c.Sched, 10*time.Millisecond, 0, 61, 62) },
		label: func(struct{}) (string, runobs.Fields) {
			return "ext-threshold", runobs.Fields{Variant: workload.TCPPR}
		},
	}, func(c *cell[struct{}]) func() *trace.Recorder {
		f := c.flow(0)
		rec := trace.NewRecorder()
		rec.Attach(f)
		c.Scope.Flows(workload.NewFlow(f, workload.TCPPR, workload.PRParams{}, 0))
		return func() *trace.Recorder { return rec }
	})
	if err != nil {
		return nil, err
	}
	samples := extractSamples(recs[0])
	t := &Table{
		Title: fmt.Sprintf("Extension: loss-detection threshold sweep over a real eps=0 trace (%d samples, alpha=0.995)",
			len(samples)),
		Header: []string{"beta", "false_drop_rate", "mean_headroom", "min_headroom"},
		csv:    "ext_threshold.csv",
	}
	for _, beta := range []float64{1.05, 1.25, 1.5, 2, 3, 5, 10} {
		r := replay(samples, 0.995, beta, 100)
		t.AddRow(f2(beta), fmt.Sprintf("%.5f", r.falseDropRate()),
			r.meanHeadroom.Round(time.Millisecond).String(), r.minHeadroom.Round(time.Millisecond).String())
	}
	return []*Table{t}, nil
}

// sample is one delivered packet's timing as seen by the sender.
type sample struct {
	seq           int64
	sentAt, ackAt sim.Time
}

func (s sample) rtt() time.Duration { return s.ackAt - s.sentAt }

// extractSamples pairs first transmissions with the first arriving ACK
// covering them from a recorded trace. Retransmitted sequences are
// skipped entirely (their timing is ambiguous, exactly as Karn's rule
// argues).
func extractSamples(rec *trace.Recorder) []sample {
	firstSend := make(map[int64]sim.Time)
	retxed := make(map[int64]bool)
	var acks []trace.Event
	for _, e := range rec.Events {
		switch e.Kind {
		case trace.DataSent:
			if e.Retx {
				retxed[e.Seq] = true
			} else if _, dup := firstSend[e.Seq]; !dup {
				firstSend[e.Seq] = e.At
			}
		case trace.AckRecv:
			acks = append(acks, e)
		}
	}
	seqs := make([]int64, 0, len(firstSend))
	for seq := range firstSend {
		if !retxed[seq] {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })

	// ACK arrivals can be reordered, so the raw Cum series is not
	// monotone. Build the monotone acknowledgment frontier: for each new
	// maximum of Cum, the earliest arrival time it was reached.
	type frontier struct {
		cum int64
		at  sim.Time
	}
	var front []frontier
	maxCum := int64(-1)
	for _, a := range acks {
		if a.Cum > maxCum {
			maxCum = a.Cum
			front = append(front, frontier{cum: a.Cum, at: a.At})
		}
	}

	var out []sample
	fi := 0
	for _, seq := range seqs {
		for fi < len(front) && front[fi].cum <= seq {
			fi++
		}
		if fi == len(front) {
			break
		}
		out = append(out, sample{seq: seq, sentAt: firstSend[seq], ackAt: front[fi].at})
	}
	return out
}

// replayResult summarizes one replay.
type replayResult struct {
	// samples is the number of delivered packets evaluated; falseDrops
	// counts those whose ACK arrived after send + mxrtt (TCP-PR would
	// have spuriously retransmitted them).
	samples, falseDrops int
	// meanHeadroom is the mean of (mxrtt − RTT) across samples: the
	// detection latency a real loss would incur beyond its RTT.
	// minHeadroom is the smallest margin (negative values are the false
	// drops).
	meanHeadroom, minHeadroom time.Duration
}

func (r replayResult) falseDropRate() float64 {
	if r.samples == 0 {
		return 0
	}
	return float64(r.falseDrops) / float64(r.samples)
}

// replay runs the ewrtt estimator over the samples in ACK-arrival order
// with the given parameters and evaluates each packet against the
// threshold in force when it was sent.
func replay(samples []sample, alpha, beta float64, cwndHint float64) replayResult {
	var res replayResult
	if len(samples) == 0 {
		return res
	}
	if cwndHint < 1 {
		cwndHint = 1
	}
	// Process in ACK order (estimator updates happen at ACK arrival).
	byAck := append([]sample(nil), samples...)
	sort.Slice(byAck, func(i, j int) bool { return byAck[i].ackAt < byAck[j].ackAt })

	var ewrtt time.Duration
	decay := core.NewtonRoot(alpha, cwndHint, 2)
	var sumHeadroom time.Duration
	minHeadroom := time.Duration(1<<62 - 1)

	for _, s := range byAck {
		mxrtt := time.Duration(beta * float64(ewrtt))
		if ewrtt == 0 {
			mxrtt = 3 * time.Second // pre-sample initial threshold
		}
		res.samples++
		headroom := mxrtt - s.rtt()
		if headroom < 0 {
			res.falseDrops++
		}
		sumHeadroom += headroom
		if headroom < minHeadroom {
			minHeadroom = headroom
		}
		// Estimator update, formula (1).
		decayed := time.Duration(float64(ewrtt) * decay)
		if s.rtt() > decayed {
			ewrtt = s.rtt()
		} else {
			ewrtt = decayed
		}
	}
	res.meanHeadroom = sumHeadroom / time.Duration(res.samples)
	res.minHeadroom = minHeadroom
	return res
}
