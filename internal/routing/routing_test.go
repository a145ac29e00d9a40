package routing

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"tcppr/internal/netem"
	"tcppr/internal/sim"
)

// threePathNet builds three disjoint a->z paths with 1, 2, and 3 hops
// (10 ms per link) and returns them shortest first.
func threePathNet(t *testing.T) (*sim.Scheduler, *netem.Network, [][]*netem.Link) {
	t.Helper()
	s := sim.NewScheduler()
	net := netem.NewNetwork(s)
	d := 10 * time.Millisecond
	bw := int64(10e6)

	p1 := []*netem.Link{mustLink(net.AddDuplex("a", "z", bw, d, 100))}
	l1, _ := net.AddDuplex("a", "m1", bw, d, 100)
	l2, _ := net.AddDuplex("m1", "z", bw, d, 100)
	p2 := []*netem.Link{l1, l2}
	k1, _ := net.AddDuplex("a", "n1", bw, d, 100)
	k2, _ := net.AddDuplex("n1", "n2", bw, d, 100)
	k3, _ := net.AddDuplex("n2", "z", bw, d, 100)
	p3 := []*netem.Link{k1, k2, k3}
	return s, net, [][]*netem.Link{p1, p2, p3}
}

func mustLink(fwd, _ *netem.Link) *netem.Link { return fwd }

func TestEpsilonZeroIsUniform(t *testing.T) {
	_, _, paths := threePathNet(t)
	r := NewEpsilon(paths, 0, sim.NewRand(1))
	counts := make(map[string]int)
	const n = 30000
	for i := 0; i < n; i++ {
		counts[netem.PathNames(r.Route())]++
	}
	if len(counts) != 3 {
		t.Fatalf("uniform router used %d paths, want 3", len(counts))
	}
	for name, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-1.0/3.0) > 0.02 {
			t.Errorf("path %s frequency %.3f, want ~0.333", name, frac)
		}
	}
}

func TestEpsilonLargeIsShortestPath(t *testing.T) {
	_, _, paths := threePathNet(t)
	r := NewEpsilon(paths, 500, sim.NewRand(1))
	short := netem.PathNames(paths[0])
	for i := 0; i < 10000; i++ {
		if got := netem.PathNames(r.Route()); got != short {
			t.Fatalf("eps=500 picked %s, want always %s", got, short)
		}
	}
}

func TestEpsilonProbabilitiesMonotoneInDelay(t *testing.T) {
	_, _, paths := threePathNet(t)
	for _, eps := range []float64{1, 4, 10, 100} {
		p := NewEpsilon(paths, eps, sim.NewRand(1)).Probabilities()
		if !(p[0] > p[1] && p[1] >= p[2]) {
			t.Errorf("eps=%v: probabilities %v not decreasing with path delay", eps, p)
		}
	}
}

func TestEpsilonProbabilitiesMatchGibbs(t *testing.T) {
	_, _, paths := threePathNet(t)
	eps := 10.0
	p := NewEpsilon(paths, eps, sim.NewRand(1)).Probabilities()
	// Delays: 10, 20, 30 ms. Weights exp(-eps*(d-dmin)/dmin).
	w := []float64{1, math.Exp(-eps * 1.0), math.Exp(-eps * 2.0)}
	sum := w[0] + w[1] + w[2]
	for i := range w {
		want := w[i] / sum
		if math.Abs(p[i]-want) > 1e-12 {
			t.Errorf("path %d probability %v, want %v", i, p[i], want)
		}
	}
}

// Property: probabilities always sum to 1 and respect the delay ordering
// for any non-negative epsilon.
func TestEpsilonDistributionProperty(t *testing.T) {
	_, _, paths := threePathNet(t)
	f := func(epsRaw uint16) bool {
		eps := float64(epsRaw) / 64
		p := NewEpsilon(paths, eps, sim.NewRand(1)).Probabilities()
		sum := 0.0
		for _, v := range p {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9 && p[0] >= p[1] && p[1] >= p[2]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEpsilonValidation(t *testing.T) {
	_, _, paths := threePathNet(t)
	for name, fn := range map[string]func(){
		"no paths":     func() { NewEpsilon(nil, 0, sim.NewRand(1)) },
		"nil rng":      func() { NewEpsilon(paths, 0, nil) },
		"negative eps": func() { NewEpsilon(paths, -1, sim.NewRand(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s must panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestStaticRouter(t *testing.T) {
	_, _, paths := threePathNet(t)
	r := Static{Path: paths[1]}
	for i := 0; i < 3; i++ {
		if netem.PathNames(r.Route()) != netem.PathNames(paths[1]) {
			t.Fatal("static router must always return its path")
		}
	}
}

func TestFlapRouterAlternates(t *testing.T) {
	s, _, paths := threePathNet(t)
	r := NewFlap(paths[:2], time.Second, s)
	if got := netem.PathNames(r.Route()); got != netem.PathNames(paths[0]) {
		t.Errorf("epoch 0 path = %s, want first path", got)
	}
	s.At(1500*time.Millisecond, func() {
		if got := netem.PathNames(r.Route()); got != netem.PathNames(paths[1]) {
			t.Errorf("epoch 1 path = %s, want second path", got)
		}
	})
	s.At(2200*time.Millisecond, func() {
		if got := netem.PathNames(r.Route()); got != netem.PathNames(paths[0]) {
			t.Errorf("epoch 2 path = %s, want first path again", got)
		}
	})
	s.Run()
}
