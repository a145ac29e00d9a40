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

func TestParallelResultsMatchSequential(t *testing.T) {
	// The same Fig 6 configuration must yield identical results whether
	// cells run in parallel or not (each cell owns its scheduler + RNGs).
	cfg := Fig6Config{
		Protocols: []string{"TCP-PR"},
		Epsilons:  []float64{0, 500},
		Durations: Durations{Warm: 5e9, Measure: 5e9},
	}
	a := RunFig6(cfg)
	b := RunFig6(cfg)
	if len(a.Points) != len(b.Points) {
		t.Fatal("point counts differ")
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Errorf("run-to-run mismatch at %d: %+v vs %+v", i, a.Points[i], b.Points[i])
		}
	}
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
