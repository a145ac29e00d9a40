package workload

import (
	"testing"
	"time"

	"tcppr/internal/core"
	"tcppr/internal/routing"
	"tcppr/internal/sim"
	"tcppr/internal/tcp"
	"tcppr/internal/topo"
)

func TestFactoryBuildsEveryProtocol(t *testing.T) {
	sched := sim.NewScheduler()
	env := tcp.SenderEnv{Sched: sched, Transmit: func(tcp.Seg) bool { return true }}
	for _, name := range AllProtocols() {
		s := Factory(name, PRParams{})(env)
		if s == nil {
			t.Errorf("Factory(%q) built nil sender", name)
		}
	}
}

// TestDupAckSendersStopCleanly: a connection abort stops the sender
// through tcp.Stopper. For every dupACK variant, three duplicate ACKs
// leave the retransmission timer armed — and, for TD-FR, the reordering
// timer too — and Stop must leave the sender quiescent with none of its
// events queued. (internal/core tests the same for TCP-PR.)
func TestDupAckSendersStopCleanly(t *testing.T) {
	for _, name := range AllProtocols() {
		if name == TCPPR {
			continue
		}
		sched := sim.NewScheduler()
		var sent []tcp.Seg
		env := tcp.SenderEnv{Sched: sched, Transmit: func(seg tcp.Seg) bool {
			sent = append(sent, seg)
			return true
		}}
		s := Factory(name, PRParams{})(env)
		st, ok := s.(interface {
			tcp.Stopper
			Quiescent() bool
		})
		if !ok {
			t.Errorf("%s: sender %T has no Stop or Quiescent", name, s)
			continue
		}
		// Two 100 ms round trips: an RTT sample, and a window of 4.
		s.Start()
		var acked int64
		for round := 0; round < 2; round++ {
			flight := sent
			sent = nil
			sched.RunUntil(sched.Now() + 100*time.Millisecond)
			for _, seg := range flight {
				acked++
				s.OnAck(tcp.Ack{CumAck: acked, EchoSeq: seg.Seq})
			}
		}
		for i := int64(1); i <= 3; i++ {
			s.OnAck(tcp.Ack{CumAck: acked, EchoSeq: acked + i})
		}
		armed := 1 // the retransmission timer
		if name == TDFR {
			armed = 2 // and the reordering timer, due SRTT/2 after the first duplicate
		}
		if n := sched.Len(); n != armed || st.Quiescent() {
			t.Errorf("%s: %d events queued (quiescent %v) after three duplicate ACKs, want %d armed timers",
				name, n, st.Quiescent(), armed)
		}
		st.Stop()
		if n := sched.Len(); n != 0 || !st.Quiescent() {
			t.Errorf("%s: %d events queued (quiescent %v) after Stop, want none", name, n, st.Quiescent())
		}
	}
}

func TestFactoryUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown protocol must panic")
		}
	}()
	Factory("TCP-BOGUS", PRParams{})
}

func TestFactoryPassesPRParams(t *testing.T) {
	sched := sim.NewScheduler()
	env := tcp.SenderEnv{Sched: sched, Transmit: func(tcp.Seg) bool { return true }}
	s := Factory(TCPPR, PRParams{Alpha: 0.5, Beta: 7})(env).(*core.Sender)
	// Beta is observable through the initial mxrtt after a first sample;
	// drive one round trip to check.
	s.Start()
	sched.RunUntil(100 * time.Millisecond)
	s.OnAck(tcp.Ack{CumAck: 1, EchoSeq: 0})
	if got := s.Mxrtt(); got != 700*time.Millisecond {
		t.Errorf("mxrtt = %v, want beta*ewrtt = 700ms", got)
	}
}

func TestKnownAndFig6Protocols(t *testing.T) {
	for _, p := range Fig6Protocols() {
		if !Known(p) {
			t.Errorf("Fig6 protocol %q not in registry", p)
		}
	}
	if Known("nope") {
		t.Error("Known accepted an unregistered name")
	}
	if len(Fig6Protocols()) != 6 {
		t.Errorf("Fig6Protocols = %d entries, want 6", len(Fig6Protocols()))
	}
}

func TestStaggeredStarts(t *testing.T) {
	starts := StaggeredStarts(4, time.Second, 2*time.Second)
	if starts[0] != time.Second {
		t.Errorf("first start = %v, want 1s", starts[0])
	}
	for i := 1; i < len(starts); i++ {
		if starts[i] <= starts[i-1] {
			t.Errorf("starts not increasing: %v", starts)
		}
		if starts[i] >= 3*time.Second {
			t.Errorf("start %d = %v exceeds base+spread", i, starts[i])
		}
	}
	one := StaggeredStarts(1, 5*time.Second, time.Minute)
	if len(one) != 1 || one[0] != 5*time.Second {
		t.Errorf("single start = %v, want [5s]", one)
	}
}

func TestMarkWindowMeasuresOnlyTheWindow(t *testing.T) {
	sched := sim.NewScheduler()
	d := topo.NewDumbbell(sched, topo.DumbbellConfig{Hosts: 1})
	f := tcp.NewFlow(d.Net, 1, d.Src(0), d.Dst(0),
		routing.Static{Path: d.FwdPath(0)}, routing.Static{Path: d.RevPath(0)})
	wf := NewFlow(f, TCPSACK, PRParams{}, 0)
	wf.MarkWindow(sched, 2*time.Second, 4*time.Second)
	sched.RunUntil(6 * time.Second)
	window := wf.WindowBytes()
	total := wf.UniqueBytes()
	if window <= 0 {
		t.Fatal("no bytes measured in the window")
	}
	if window >= total {
		t.Errorf("window bytes %d must be less than total %d (traffic flowed outside the window)", window, total)
	}
}

func TestByProtocolGrouping(t *testing.T) {
	sched := sim.NewScheduler()
	d := topo.NewDumbbell(sched, topo.DumbbellConfig{Hosts: 2})
	var flows []*Flow
	for i := 0; i < 2; i++ {
		proto := TCPPR
		if i == 1 {
			proto = TCPSACK
		}
		f := tcp.NewFlow(d.Net, i+1, d.Src(i), d.Dst(i),
			routing.Static{Path: d.FwdPath(i)}, routing.Static{Path: d.RevPath(i)})
		wf := NewFlow(f, proto, PRParams{}, 0)
		wf.MarkWindow(sched, time.Second, 3*time.Second)
		flows = append(flows, wf)
	}
	sched.RunUntil(3 * time.Second)
	labels, series := ByProtocol(flows, 2*time.Second)
	if len(labels) != 2 || labels[0] != TCPPR || labels[1] != TCPSACK {
		t.Errorf("labels = %v", labels)
	}
	for _, l := range labels {
		if len(series[l]) != 1 || series[l][0] <= 0 {
			t.Errorf("series[%s] = %v", l, series[l])
		}
	}
}
