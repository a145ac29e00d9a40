package main

import (
	"time"

	"tcppr/internal/netem"
	"tcppr/internal/sim"
	"tcppr/internal/tcp"
)

// kernelFlow is a flow ID no workload uses.
const kernelFlow = 1 << 30

// kernelScheduler measures the bare scheduler: pending self-rearming
// AtFunc events, each re-arming itself at a pseudo-random delay when it
// fires, so the heap stays pending deep while events pop and push in
// mixed order. It returns wall nanoseconds per executed event.
func kernelScheduler(pending, events int) float64 {
	if pending < 1 {
		pending = 1
	}
	s := sim.NewScheduler()
	lcg := uint64(0x9e3779b97f4a7c15)
	var fire func(any)
	fire = func(arg any) {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		s.AfterFunc(time.Duration(lcg>>44)+1, fire, arg)
	}
	for i := 0; i < pending; i++ {
		fire(nil)
	}
	for i := 0; i < 2*pending; i++ {
		s.Step()
	}
	t0 := time.Now()
	for i := 0; i < events; i++ {
		s.Step()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(events)
}

// kernelHops measures the link layer alone: pooled packets pushed down a
// forward path of the workload's topology with no TCP on top, in bursts
// small enough that no queue overflows. It returns wall nanoseconds per
// link hop.
func kernelHops(net *netem.Network, path []*netem.Link, packets int) float64 {
	const burst = 32
	sched := net.Scheduler()
	delivered := 0
	path[len(path)-1].To.Handle(kernelFlow, func(*netem.Packet) { delivered++ })
	send := func(n int) {
		for sent := 0; sent < n; sent += burst {
			for i := 0; i < burst; i++ {
				p := net.NewPacket()
				p.Flow = kernelFlow
				p.Size = tcp.DefaultPktSize
				p.Path = path
				net.Send(p)
			}
			sched.Run()
		}
	}
	send(4 * burst)
	delivered = 0
	t0 := time.Now()
	send(packets)
	wall := time.Since(t0)
	if delivered == 0 {
		return 0
	}
	return float64(wall.Nanoseconds()) / float64(delivered*len(path))
}
