package integration

import (
	"fmt"
	"os"
	"testing"
	"time"

	"tcppr/internal/core"
	"tcppr/internal/netem"
	"tcppr/internal/routing"
	"tcppr/internal/sim"
	"tcppr/internal/tcp"
	"tcppr/internal/topo"
)

// TestDebugPRMultipathTrace is a diagnostic probe for the Fig 5 scenario.
func TestDebugPRMultipathTrace(t *testing.T) {
	if os.Getenv("PR_TRACE") == "" {
		t.Skip("diagnostic probe; set PR_TRACE=1 to run")
	}
	sched := sim.NewScheduler()
	m := topo.NewMultipath(sched, 3, 10*time.Millisecond)
	fwd := routing.NewEpsilon(m.FwdPaths, 0, sim.NewRand(sim.SplitSeed(42, 1)))
	rev := routing.NewEpsilon(m.RevPaths, 0, sim.NewRand(sim.SplitSeed(42, 2)))
	f := tcp.NewFlow(m.Net, 1, m.Src, m.Dst, fwd, rev)
	var s *core.Sender
	f.Attach(func(env tcp.SenderEnv) tcp.Sender {
		s = core.New(env, core.Config{})
		return s
	})
	f.Start(0)
	for i := 0; i <= 100; i++ {
		at := time.Duration(i) * 100 * time.Millisecond
		sched.At(at, func() {
			fmt.Printf("t=%6.2fs cwnd=%7.2f mode=%v ewrtt=%8v mxrtt=%8v infl=%4d mem=%4d una=%7d drops=%d halv=%d extreme=%d uniq=%d\n",
				sched.Now().Seconds(), s.Cwnd(), s.Mode(), s.Ewrtt(), s.Mxrtt(),
				s.InFlight(), s.MemorizeLen(), s.Una(), s.DropsDetected, s.Halvings,
				s.ExtremeEvents, f.Receiver().UniqueSegs)
		})
	}
	sched.RunUntil(10 * time.Second)
}

// TestDebugPRTrace is a diagnostic probe, skipped unless -run selects it
// explicitly with verbose mode.
func TestDebugPRTrace(t *testing.T) {
	if os.Getenv("PR_TRACE") == "" {
		t.Skip("diagnostic probe; set PR_TRACE=1 to run")
	}
	sched := sim.NewScheduler()
	d := topo.NewDumbbell(sched, topo.DumbbellConfig{Hosts: 1})
	f := tcp.NewFlow(d.Net, 1, d.Src(0), d.Dst(0),
		routing.Static{Path: d.FwdPath(0)}, routing.Static{Path: d.RevPath(0)})
	var s *core.Sender
	f.Attach(func(env tcp.SenderEnv) tcp.Sender {
		s = core.New(env, core.Config{})
		return s
	})
	f.Start(0)
	interesting := func() bool {
		now := sched.Now()
		return now > 18500*time.Millisecond && now < 21*time.Second
	}
	d.Net.Observe(linkTap(func(kind byte, l *netem.Link, p *netem.Packet) {
		if kind == 'x' && interesting() {
			fmt.Printf("  t=%v LINKDROP %s pkt flow=%d payload=%+v\n", sched.Now(), l, p.Flow, p.Payload)
		}
	}))
	f.Hooks.OnDataSent = func(seg tcp.Seg, now sim.Time) {
		if seg.Retx && interesting() {
			fmt.Printf("  t=%v RETX seq=%d\n", now, seg.Seq)
		}
	}
	f.Hooks.OnDataRecv = func(seg tcp.Seg, now sim.Time) {
		if seg.Retx && interesting() {
			fmt.Printf("  t=%v RECV-RETX seq=%d\n", now, seg.Seq)
		}
	}
	for i := 0; i <= 180; i++ {
		at := time.Duration(i) * 250 * time.Millisecond
		sched.At(at, func() {
			fmt.Printf("t=%6.2fs cwnd=%7.2f mode=%v ewrtt=%8v mxrtt=%8v infl=%4d mem=%4d una=%7d drops=%d halv=%d extreme=%d uniq=%d qlen=%d\n",
				sched.Now().Seconds(), s.Cwnd(), s.Mode(), s.Ewrtt(), s.Mxrtt(),
				s.InFlight(), s.MemorizeLen(), s.Una(), s.DropsDetected, s.Halvings,
				s.ExtremeEvents, f.Receiver().UniqueSegs, d.Bottleneck.QueueLen())
		})
	}
	sched.RunUntil(45 * time.Second)
}
