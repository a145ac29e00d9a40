package integration

import (
	"fmt"
	"testing"
	"time"

	"tcppr/internal/netem"
	"tcppr/internal/routing"
	"tcppr/internal/sim"
	"tcppr/internal/tcp"
	"tcppr/internal/topo"
	"tcppr/internal/workload"
)

// TestNoDeadlockUnderRandomLoss drives every protocol over a dumbbell
// whose links randomly drop packets in BOTH directions, at escalating
// loss rates. The invariant is liveness: however hostile the loss
// process, the connection keeps delivering new data (timers must always
// reschedule recovery; no silent deadlock).
func TestNoDeadlockUnderRandomLoss(t *testing.T) {
	for _, lossPct := range []float64{0.02, 0.10, 0.25} {
		for _, proto := range workload.AllProtocols() {
			proto, lossPct := proto, lossPct
			t.Run(fmt.Sprintf("%s/loss=%.0f%%", proto, lossPct*100), func(t *testing.T) {
				sched := sim.NewScheduler()
				d := topo.NewDumbbell(sched, topo.DumbbellConfig{Hosts: 1})
				d.Bottleneck.SetLoss(lossPct, sim.NewRand(sim.SplitSeed(1000, int64(lossPct*100))))
				d.Net.FindLink("R", "L").SetLoss(lossPct, sim.NewRand(sim.SplitSeed(2000, int64(lossPct*100))))

				f := tcp.NewFlow(d.Net, 1, d.Src(0), d.Dst(0),
					routing.Static{Path: d.FwdPath(0)}, routing.Static{Path: d.RevPath(0)})
				workload.NewFlow(f, proto, workload.PRParams{}, 0)

				// Check liveness in consecutive windows: delivery must
				// keep growing across the run, even at 25% loss (where
				// exponential backoff makes progress slow but nonzero).
				var last int64
				stalled := 0
				for epoch := 1; epoch <= 6; epoch++ {
					sched.RunUntil(sim.Time(epoch) * 30 * time.Second)
					cur := f.Receiver().UniqueSegs
					if cur == last {
						stalled++
					} else {
						stalled = 0
					}
					last = cur
				}
				if last == 0 {
					t.Fatalf("%s delivered nothing in 180s at %.0f%% loss", proto, lossPct*100)
				}
				if stalled >= 3 {
					t.Fatalf("%s stalled for %d consecutive 30s windows (delivered %d total)",
						proto, stalled, last)
				}
			})
		}
	}
}

// TestNoDeadlockUnderJitterAndLoss combines reordering jitter with loss
// on the multipath topology for the reordering-tolerant senders.
func TestNoDeadlockUnderJitterAndLoss(t *testing.T) {
	for _, proto := range []string{workload.TCPPR, workload.TDFR, workload.TCPDOOR} {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			sched := sim.NewScheduler()
			m := topo.NewMultipath(sched, 3, 10*time.Millisecond)
			for i, p := range m.FwdPaths {
				p[0].SetLoss(0.05, sim.NewRand(sim.SplitSeed(3000, int64(i))))
				p[0].SetImpairment(netem.NewJitter(15*time.Millisecond, sim.NewRand(sim.SplitSeed(4000, int64(i)))))
			}
			fwd := routing.NewEpsilon(m.FwdPaths, 0, sim.NewRand(1))
			rev := routing.NewEpsilon(m.RevPaths, 0, sim.NewRand(2))
			f := tcp.NewFlow(m.Net, 1, m.Src, m.Dst, fwd, rev)
			workload.NewFlow(f, proto, workload.PRParams{}, 0)
			sched.RunUntil(60 * time.Second)
			if f.Receiver().UniqueSegs < 1000 {
				t.Errorf("%s delivered only %d segments in 60s under jitter+loss", proto, f.Receiver().UniqueSegs)
			}
		})
	}
}

// TestDelayedAckReceiverWithAllProtocols verifies every sender functions
// against the RFC 1122 delayed-ACK receiver (TCP-PR's unmodified-receiver
// claim covers both receiver behaviours).
func TestDelayedAckReceiverWithAllProtocols(t *testing.T) {
	for _, proto := range workload.AllProtocols() {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			sched := sim.NewScheduler()
			d := topo.NewDumbbell(sched, topo.DumbbellConfig{Hosts: 1})
			f := tcp.NewFlow(d.Net, 1, d.Src(0), d.Dst(0),
				routing.Static{Path: d.FwdPath(0)}, routing.Static{Path: d.RevPath(0)})
			f.DelayedAcks = true
			workload.NewFlow(f, proto, workload.PRParams{}, 0)
			sched.RunUntil(30 * time.Second)
			// 15 Mbps for 30s ≈ 56k segments at full rate; require at
			// least a third (delack halves the ACK clock's granularity
			// but must not cripple anyone).
			if f.Receiver().UniqueSegs < 18000 {
				t.Errorf("%s with delayed ACKs delivered %d segments in 30s, want >= 18000",
					proto, f.Receiver().UniqueSegs)
			}
		})
	}
}

// TestPacketConservation checks flow-level accounting across an impaired
// path: every segment the receiver ever saw was sent, and per-link stats
// balance.
func TestPacketConservation(t *testing.T) {
	sched := sim.NewScheduler()
	d := topo.NewDumbbell(sched, topo.DumbbellConfig{Hosts: 1})
	d.Bottleneck.SetLoss(0.05, sim.NewRand(11))
	f := tcp.NewFlow(d.Net, 1, d.Src(0), d.Dst(0),
		routing.Static{Path: d.FwdPath(0)}, routing.Static{Path: d.RevPath(0)})
	recvCount := uint64(0)
	f.Hooks.OnDataRecv = func(tcp.Seg, sim.Time) { recvCount++ }
	workload.NewFlow(f, workload.TCPPR, workload.PRParams{}, 0)
	sched.RunUntil(30 * time.Second)

	if recvCount > f.DataSent() {
		t.Errorf("received %d data packets but only %d were sent", recvCount, f.DataSent())
	}
	var totalDropped uint64
	for _, l := range d.Net.Links() {
		st := l.Stats()
		totalDropped += st.Dropped + st.RandomDropped
		if st.Delivered > st.Enqueued {
			t.Errorf("link %s delivered %d > enqueued %d", l, st.Delivered, st.Enqueued)
		}
	}
	if totalDropped == 0 {
		t.Error("5% random loss produced no drops in 30s")
	}
	if uint64(f.Receiver().UniqueSegs+f.Receiver().DupSegs) != recvCount {
		t.Errorf("receiver accounting: unique %d + dup %d != arrivals %d",
			f.Receiver().UniqueSegs, f.Receiver().DupSegs, recvCount)
	}
}
