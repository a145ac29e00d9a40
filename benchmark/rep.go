package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"strings"
	"time"

	"tcppr/internal/netem"
	"tcppr/internal/sim"
	"tcppr/internal/tcp"
)

// rep is what one repetition of a workload cost and what it simulated.
// Costs are taken around the run loops only; building the cells is set-up
// and has its own metric.
type rep struct {
	wall       time.Duration
	simSeconds float64
	mallocs    uint64
	allocBytes uint64

	events      uint64
	pkts        int64 // unique data segments delivered to a receiver
	goodputMbps float64
	cellGoodput map[string]float64

	hops, drops, offered uint64
	maxQueue             int

	// conns counts connections simulated: long-lived flows, on/off
	// transfers opened, city flows. stalled counts long-lived flows that
	// delivered nothing.
	conns, transfers, stalled int

	// digest covers every simulated statistic above at full resolution;
	// traffic covers only what is comparable across shard counts.
	digest, traffic string

	// violators is the number of connections the invariant checker
	// flagged; broken lists failures that taint the whole repetition.
	violators int
	broken    []string
}

// sameRun reports whether two repetitions simulated exactly the same thing.
func (r *rep) sameRun(o *rep) bool { return r.digest == o.digest && r.events == o.events }

// runRep builds the workload and runs every cell to its horizon. between,
// when set, is called on sequential cells between one-simulated-second
// chunks of the run loop (chunking executes the same events in the same
// order; the traced repetition samples the event queue there).
func runRep(w workloadDef, seed int64, scale float64, tp tap, between func(*cell)) rep {
	cells := w.build(seed, scale, tp)
	var r rep
	var m0, m1 runtime.MemStats
	for _, c := range cells {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		if between != nil && c.eng == nil {
			for t := sim.Time(time.Second); t < c.horizon; t += sim.Time(time.Second) {
				c.run(t)
				between(c)
			}
		}
		c.run(c.horizon)
		wall := time.Since(t0)
		runtime.ReadMemStats(&m1)
		r.wall += wall
		r.mallocs += m1.Mallocs - m0.Mallocs
		r.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		r.simSeconds += c.horizon.Seconds()
	}
	r.collect(w, cells)
	return r
}

// collect reads the simulated results out of the finished cells.
func (r *rep) collect(w workloadDef, cells []*cell) {
	h := sha256.New()
	th := sha256.New()
	r.cellGoodput = make(map[string]float64, len(cells))
	for _, c := range cells {
		fmt.Fprintf(h, "cell %s\n", c.label)
		var bytes int64
		for _, f := range c.flows {
			rc := f.Receiver()
			fmt.Fprintf(h, "flow %d %s %d %d %d %d %d %d\n", f.ID, f.Protocol,
				rc.UniqueSegs, rc.DupSegs, rc.Reordered, f.DataSent(), f.DataRetx(), f.AcksSent())
			r.conns++
			if rc.UniqueSegs == 0 {
				r.stalled++
			}
			r.pkts += rc.UniqueSegs
			bytes += f.UniqueBytes()
		}
		for _, s := range c.sources {
			st := s.Stats()
			fmt.Fprintf(h, "source %d %d %d %d %d\n", st.FlowsStarted, st.Transfers, st.BytesDelivered, st.Retries, st.GaveUp)
			r.conns += st.FlowsStarted
			r.transfers += st.Transfers
			r.stalled += st.GaveUp
			r.pkts += st.BytesDelivered / tcp.DefaultPktSize
			bytes += st.BytesDelivered
		}
		if c.city != nil {
			res := c.city.Finish(r.wall)
			fmt.Fprintf(th, "city %d %d %d %d\n", res.Flows, res.Transfers, res.TransferBytes, res.BulkBytes)
			fmt.Fprintf(h, "city %d %d %d %d\n", res.Flows, res.Transfers, res.TransferBytes, res.BulkBytes)
			r.conns += res.Flows
			r.transfers += res.Transfers
			bytes += res.TransferBytes + res.BulkBytes
			r.pkts += (res.TransferBytes + res.BulkBytes) / tcp.DefaultPktSize
			r.violators += int(res.Violations)
		}
		for _, n := range c.nets() {
			r.events += n.Scheduler().Processed()
			r.links(h, n)
		}
		mbps := float64(bytes) * 8 / c.horizon.Seconds() / 1e6
		r.cellGoodput[c.label] = mbps
		r.goodputMbps += mbps
		if c.checker != nil {
			r.violations(c)
		}
	}
	if w.perCellGoodput {
		r.goodputMbps /= float64(len(cells))
	}
	if r.violators > r.conns {
		r.violators = r.conns
	}
	if w.shape != nil {
		if msg := w.shape(r.cellGoodput); msg != "" {
			r.broken = append(r.broken, "paper shape: "+msg)
		}
	}
	r.digest = hex.EncodeToString(h.Sum(nil))
	r.traffic = hex.EncodeToString(th.Sum(nil))
}

// links folds one network's link counters into the digest and the
// netem-layer totals, and checks conservation on each link: queue
// occupancy closes the enqueue/dequeue ledger and nothing is delivered
// that did not enter.
func (r *rep) links(h hash.Hash, n *netem.Network) {
	for _, l := range n.Links() {
		st := l.Stats()
		fmt.Fprintf(h, "link %s %d %d %d %d %d %d\n", l.Name,
			st.Enqueued, st.Dropped, st.Dequeued, st.Delivered, st.Bytes, st.MaxQueue)
		r.hops += st.Delivered
		r.offered += st.Enqueued + st.Dropped
		if st.MaxQueue > r.maxQueue {
			r.maxQueue = st.MaxQueue
		}
		if l.QueueLen() != int(st.Enqueued)-int(st.Dequeued) || st.Delivered > st.Dequeued {
			r.broken = append(r.broken, fmt.Sprintf("link conservation: %s enqueued %d dequeued %d delivered %d queued %d",
				l.Name, st.Enqueued, st.Dequeued, st.Delivered, l.QueueLen()))
		}
	}
	r.drops += n.TotalDrops()
}

// violations closes a sequential cell's invariant checker and counts the
// connections it flagged. A violation that names no flow (a link or the
// network) taints the repetition.
func (r *rep) violations(c *cell) {
	c.checker.Finish()
	flagged := map[string]bool{}
	for _, v := range c.checker.Violations() {
		if strings.HasPrefix(v.Flow, "flow ") {
			flagged[v.Flow] = true
		} else {
			r.broken = append(r.broken, "invariant: "+v.String())
		}
	}
	r.violators += len(flagged)
}

// failed is the number of connections of this repetition that count as
// failed operations.
func (r *rep) failed() int {
	if len(r.broken) > 0 {
		return r.conns
	}
	n := r.violators + r.stalled
	if n > r.conns {
		n = r.conns
	}
	return n
}
