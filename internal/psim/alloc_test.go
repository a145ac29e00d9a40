package psim

import (
	"testing"
	"time"

	"tcppr/internal/sim"
)

// TestCrossingsAllocateNothing: once its pools are warm, a shard crossing
// allocates nothing. The two backbone flows of the test city run split
// across two shards, every packet crossing the cut, and window by window
// beside the same flows on one shard. Over the same windows the two runs
// must allocate exactly as much, which after the warm-up is nothing. The
// one-shard run is the reference, so an allocation the flows make
// themselves (a receiver's DSACK block) is not charged to the crossings. A
// crossing's message comes from the destination shard's free list and
// rides its lane, the split flows' payload boxes come back at each
// barrier, and the shard workers are bound once, so spawning them per
// window costs nothing either.
func TestCrossingsAllocateNothing(t *testing.T) {
	const warm, windows = 8 * time.Second, 100
	var w sim.Time // the two-shard lookahead; the one-shard run steps by it too
	measure := func(shards int) (allocs float64, delivered int64) {
		eng, st := BuildCity(CityRun{
			City: testCity, Shards: shards, Seed: 11,
			Horizon: warm, SourcesPerHost: -1,
		})
		if want := map[int]int{1: 0, 2: len(st.bulk)}[shards]; len(eng.split) != want {
			t.Fatalf("shards=%d: %d split flows registered, want %d", shards, len(eng.split), want)
		}
		if shards > 1 {
			w = sim.Time(eng.Lookahead())
		}
		window, start := 0, sim.Time(0)
		run := func(n int) {
			for i := 0; i < n; i++ {
				eng.step(window, start, start+w)
				window, start = window+1, start+w
			}
		}
		run(int(sim.Time(warm) / w))
		var before int64
		allocs = testing.AllocsPerRun(1, func() { // the second of its two calls is measured
			before = st.bulk[0].UniqueBytes()
			run(windows)
		})
		return allocs, st.bulk[0].UniqueBytes() - before
	}
	two, twoBytes := measure(2)
	one, oneBytes := measure(1)
	if twoBytes == 0 || twoBytes != oneBytes {
		t.Fatalf("measured windows delivered %d bytes at 2 shards, %d at 1", twoBytes, oneBytes)
	}
	t.Logf("%d windows, %d bytes across the cut: %v allocations at 2 shards, %v at 1", windows, twoBytes, two, one)
	if two != one {
		t.Errorf("%d windows allocate %v times at 2 shards, %v at 1: crossings allocate", windows, two, one)
	}
}
