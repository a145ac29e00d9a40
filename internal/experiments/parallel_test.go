package experiments

import (
	"testing"
	"testing/quick"
)

func TestParallelMapOrderAndCompleteness(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw % 200)
		out := parallelMap(n, func(i int) int { return i * i })
		if len(out) != n {
			return false
		}
		for i, v := range out {
			if v != i*i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelMapEmpty(t *testing.T) {
	if out := parallelMap(0, func(int) int { return 1 }); out != nil {
		t.Errorf("empty map returned %v", out)
	}
}

func TestParallelMapPanicsPropagate(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	parallelMap(8, func(i int) int {
		if i == 5 {
			panic("boom")
		}
		return i
	})
}

func TestParallelMapConcurrentWithSetParallelism(t *testing.T) {
	// The CLI can flip -parallel between runs while tests already map in
	// the background; the cap is read per parallelMap call, so concurrent
	// writers must never race map workers. Run under -race this exercises
	// the atomic handoff.
	defer SetParallelism(0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			SetParallelism(i % 5)
		}
	}()
	for j := 0; j < 20; j++ {
		out := parallelMap(32, func(i int) int { return i + 1 })
		for i, v := range out {
			if v != i+1 {
				t.Fatalf("out[%d] = %d", i, v)
			}
		}
	}
	<-done
}
