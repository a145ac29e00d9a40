package netem

import (
	"testing"
	"time"

	"tcppr/internal/sim"
)

// reorderRun pushes n spaced packets through a one-hop link carrying the
// given reorder model and returns the packet IDs in arrival order.
func reorderRun(t *testing.T, model func(l *Link), n int, gap time.Duration) ([]uint64, LinkStats, *Link) {
	t.Helper()
	s := sim.NewScheduler()
	net := NewNetwork(s)
	l := net.AddLink("a", "b", 10_000_000, time.Millisecond, n+10)
	model(l)
	var order []uint64
	net.Node("b").Handle(1, func(p *Packet) { order = append(order, p.ID) })
	for i := 0; i < n; i++ {
		at := sim.Time(i) * sim.Time(gap)
		s.At(at, func() {
			p := net.NewPacket()
			p.Flow, p.Size, p.Path = 1, 1000, []*Link{l}
			if !net.Send(p) {
				t.Fatal("send rejected")
			}
		})
	}
	s.Run()
	return order, l.Stats(), l
}

// displacement returns, for each arrival, how many later-sent packets
// (larger ID) arrived before it — the per-packet reorder extent.
func displacement(order []uint64) []int {
	out := make([]int, len(order))
	for i, id := range order {
		for _, earlier := range order[:i] {
			if earlier > id {
				out[i]++
			}
		}
	}
	return out
}

// TestSwapDistanceDisplacementBound is the property test the satellite
// asks for: whatever the traffic, no packet's displacement may exceed
// the configured ladder length, and the configured process must actually
// reorder.
func TestSwapDistanceDisplacementBound(t *testing.T) {
	probs := []float64{0.4, 0.3, 0.2, 0.1}
	for seed := int64(1); seed <= 5; seed++ {
		m := NewSwapDistance(probs, 0, sim.NewRand(seed))
		order, st, l := reorderRun(t, func(l *Link) { l.SetReorderModel(m) }, 400, time.Millisecond)
		if len(order) != 400 {
			t.Fatalf("seed %d: delivered %d of 400 packets", seed, len(order))
		}
		maxd, reordered := 0, 0
		for _, d := range displacement(order) {
			if d > 0 {
				reordered++
			}
			if d > maxd {
				maxd = d
			}
		}
		if maxd > m.MaxDisplacement() {
			t.Errorf("seed %d: displacement %d exceeds bound %d", seed, maxd, m.MaxDisplacement())
		}
		if reordered == 0 {
			t.Errorf("seed %d: 40%% swap model reordered nothing", seed)
		}
		if st.ReorderHeld != st.ReorderReleased {
			t.Errorf("seed %d: custody ledger held=%d released=%d", seed, st.ReorderHeld, st.ReorderReleased)
		}
		if l.ReorderHeldNow() != 0 {
			t.Errorf("seed %d: %d packets still in custody after drain", seed, l.ReorderHeldNow())
		}
	}
}

// TestSwapDistanceDeterministic: same (seed, model) ⇒ identical arrival
// order.
func TestSwapDistanceDeterministic(t *testing.T) {
	run := func() []uint64 {
		m := NewSwapDistance([]float64{0.3, 0.2, 0.1}, 0, sim.NewRand(7))
		order, _, _ := reorderRun(t, func(l *Link) { l.SetReorderModel(m) }, 200, time.Millisecond)
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs between identical runs: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestSwapDistanceMaxHoldReleasesLastPacket: a hold with no successors
// to slip behind must resolve via the hold-cap timer, not strand the
// packet.
func TestSwapDistanceMaxHoldReleasesLastPacket(t *testing.T) {
	// Probability 1 at distance 1: the first packet is always held, and
	// no second packet ever comes.
	m := NewSwapDistance([]float64{1}, 10*time.Millisecond, sim.NewRand(1))
	order, st, _ := reorderRun(t, func(l *Link) { l.SetReorderModel(m) }, 1, time.Millisecond)
	if len(order) != 1 {
		t.Fatalf("lone held packet never delivered (got %d arrivals)", len(order))
	}
	if st.ReorderHeld != 1 || st.ReorderReleased != 1 {
		t.Fatalf("ledger held=%d released=%d, want 1/1", st.ReorderHeld, st.ReorderReleased)
	}
}

// TestCoalesceReversesBatches: a full batch drains newest-first; the
// remainder drains on the deadline. Every packet is conserved.
func TestCoalesceReversesBatches(t *testing.T) {
	m := NewCoalesce(4, 4*time.Millisecond, 10*time.Microsecond, nil)
	order, st, l := reorderRun(t, func(l *Link) { l.SetReorderModel(m) }, 10, 500*time.Microsecond)
	if len(order) != 10 {
		t.Fatalf("delivered %d of 10 packets", len(order))
	}
	// IDs are 0-based send order: batches {0..3} and {4..7} reverse; the
	// trailing pair {8,9} closes on the deadline, also newest-first.
	want := []uint64{3, 2, 1, 0, 7, 6, 5, 4, 9, 8}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("arrival order %v, want %v", order, want)
		}
	}
	if st.ReorderHeld != st.ReorderReleased || l.ReorderHeldNow() != 0 {
		t.Fatalf("ledger held=%d released=%d heldNow=%d", st.ReorderHeld, st.ReorderReleased, l.ReorderHeldNow())
	}
}

// TestStripeRoundRobinReorders: deterministic striping over unequal
// sub-path delays reorders without custody and without loss.
func TestStripeRoundRobinReorders(t *testing.T) {
	m := NewStripe([]time.Duration{0, 5 * time.Millisecond}, nil)
	order, st, _ := reorderRun(t, func(l *Link) { l.SetReorderModel(m) }, 50, time.Millisecond)
	if len(order) != 50 {
		t.Fatalf("delivered %d of 50 packets", len(order))
	}
	reordered := 0
	for _, d := range displacement(order) {
		if d > 0 {
			reordered++
		}
	}
	if reordered == 0 {
		t.Fatal("striping over +0/+5ms sub-paths reordered nothing")
	}
	if st.ReorderHeld != 0 {
		t.Fatalf("stripe took custody of %d packets, want 0", st.ReorderHeld)
	}
	if st.ReorderDelayed == 0 {
		t.Fatal("stripe detoured nothing (ReorderDelayed = 0)")
	}
}

// TestReorderScenarioCatalog: every canned scenario constructs, and
// lookups fail loudly.
func TestReorderScenarioCatalog(t *testing.T) {
	names := ReorderScenarioNames()
	if len(names) < 4 {
		t.Fatalf("catalog has %d scenarios, want at least none + 3 models", len(names))
	}
	for _, name := range names {
		sc, err := ReorderScenarioByName(name)
		if err != nil {
			t.Fatalf("lookup %q: %v", name, err)
		}
		m := sc.New(sim.NewRand(1))
		if name == "none" && m != nil {
			t.Error("scenario none built a model")
		}
		if name != "none" && m == nil {
			t.Errorf("scenario %q built a nil model", name)
		}
	}
	if _, err := ReorderScenarioByName("bogus"); err == nil {
		t.Fatal("unknown scenario lookup did not error")
	}
}

// TestImpairmentStackMatchesLegacySetters pins the historical draw order:
// a Stack of Jitter+Corruption+Duplication reproduces, arrival for
// arrival, what the since-deleted SetJitter/SetCorruption/SetDuplication
// setter trio produced with the same seeds (11/12/13). The expectations
// below were recorded from that legacy path before it was removed.
func TestImpairmentStackMatchesLegacySetters(t *testing.T) {
	s := sim.NewScheduler()
	net := NewNetwork(s)
	l := net.AddLink("a", "b", 10_000_000, time.Millisecond, 200)
	l.SetImpairment(Stack{
		NewJitter(3*time.Millisecond, sim.NewRand(11)),
		NewCorruption(0.05, sim.NewRand(12)),
		NewDuplication(0.05, sim.NewRand(13)),
	})
	var arrivals []sim.Time
	net.Node("b").Handle(1, func(*Packet) { arrivals = append(arrivals, s.Now()) })
	for i := 0; i < 150; i++ {
		at := sim.Time(i) * sim.Time(700*time.Microsecond)
		s.At(at, func() {
			p := net.NewPacket()
			p.Flow, p.Size, p.Path = 1, 1000, []*Link{l}
			net.Send(p)
		})
	}
	s.Run()

	legacySt := LinkStats{
		Enqueued: 150, Dequeued: 150, Corrupted: 5, Duplicated: 10,
		Delivered: 155, Bytes: 155000, MaxQueue: 20,
	}
	if st := l.Stats(); st != legacySt {
		t.Fatalf("stats diverge:\nlegacy %+v\nstack  %+v", legacySt, st)
	}
	if len(arrivals) != len(legacyArrivals) {
		t.Fatalf("arrival counts diverge: %d vs %d", len(legacyArrivals), len(arrivals))
	}
	for i := range legacyArrivals {
		if legacyArrivals[i] != arrivals[i] {
			t.Fatalf("arrival %d diverges: %v vs %v", i, legacyArrivals[i], arrivals[i])
		}
	}
}

// legacyArrivals are the 155 delivery instants (ns) of the legacy run.
var legacyArrivals = []sim.Time{
	2627782, 5116244, 6082820, 6145108, 6919137, 7804414, 8440947, 8829300,
	9691941, 11565589, 11947441, 14473765, 14532927, 15524797, 16347022, 16426919,
	18830038, 19716491, 19716491, 20173457, 20608433, 20629089, 21744560, 22733831,
	23489842, 24193373, 25966608, 26594348, 26651018, 27952758, 28748570, 28930911,
	30677973, 30923429, 31486294, 32146448, 33747051, 33898450, 34021789, 34943236,
	37362883, 37868358, 38496969, 38808226, 38842668, 39855808, 41009646, 41572413,
	41611150, 42908820, 45265344, 45281196, 45353639, 46243251, 47405466, 48410629,
	48467802, 48827091, 51380577, 51580915, 51885703, 52466674, 52676299, 54583350,
	55102394, 55102394, 55326341, 55786879, 56653097, 58404307, 58564366, 59450002,
	61304397, 61443371, 63264339, 63529988, 63529988, 63725844, 63977117, 63977117,
	66385174, 67019786, 67019786, 67370133, 67900066, 68310009, 68310009, 68750816,
	70841950, 70946989, 71388067, 71867746, 72591213, 74625930, 75598610, 75740585,
	76431910, 77451778, 78443035, 79406610, 80178453, 80393192, 80393192, 80751906,
	82030764, 83207189, 83649303, 84695149, 85611788, 86229659, 87079143, 87438325,
	88636777, 89549536, 90478609, 90478609, 90953691, 91726346, 92024398, 92670025,
	93008561, 95600015, 95645692, 95804681, 99073267, 99100265, 100365787, 101236571,
	101521235, 102052489, 102138227, 104087799, 104188626, 105750514, 106502271, 106864930,
	108609707, 109811597, 110738171, 111071200, 111369258, 111612567, 111996271, 113256584,
	113256584, 114092328, 116358543, 116556029, 117280729, 118329211, 118329211, 118974621,
	120914915, 121064062, 122784683,
}

// TestReorderDetachedZeroAllocs is the hot-path gate the PERFORMANCE
// note cites: with no reorder model installed, steady-state forwarding
// through the reorder-aware enqueue path still allocates nothing.
func TestReorderDetachedZeroAllocs(t *testing.T) {
	s := sim.NewScheduler()
	net := NewNetwork(s)
	l1 := net.AddLink("a", "b", 10_000_000, time.Millisecond, 100)
	l2 := net.AddLink("b", "c", 10_000_000, time.Millisecond, 100)
	net.Node("c").Handle(1, func(*Packet) {})
	if l1.ReorderModel() != nil || l1.Impairment() != nil {
		t.Fatal("fresh link is not detached")
	}
	path := []*Link{l1, l2}
	send := func() {
		p := net.NewPacket()
		p.Flow, p.Size, p.Path = 1, 1000, path
		if !net.Send(p) {
			t.Fatal("send rejected")
		}
		s.Run()
	}
	send() // prime the pools
	if allocs := testing.AllocsPerRun(500, send); allocs != 0 {
		t.Errorf("detached reorder path allocates %.1f objects/packet, want 0", allocs)
	}
}
