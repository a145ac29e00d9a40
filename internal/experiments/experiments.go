// Package experiments reproduces the paper's evaluation — Fig 2
// fairness, Fig 3 coefficient of variation, Fig 4 α/β sensitivity, Fig 6
// multipath comparison — plus the ablations DESIGN.md calls out, the
// extensions and the survival matrices. Every experiment is a
// declaration: a sweep of typed axes whose cells runSweep (harness.go)
// validates, fans out across the worker pool and instruments alike, and
// registry.go is the one table mapping each CLI name onto its
// declaration. The same declarations back cmd/experiments, the
// repository-root benchmarks, and the experiment tests, so every path
// exercises identical code.
package experiments

import "time"

// Durations sets the simulated warm-up and measurement windows. The paper
// measures throughput over the final 60 s of each run; Full reproduces
// that, Quick is a scaled-down variant for unit tests and benchmarks.
type Durations struct {
	Warm    time.Duration
	Measure time.Duration
}

// Full matches the paper's measurement protocol (60 s steady-state window
// after convergence).
var Full = Durations{Warm: 60 * time.Second, Measure: 60 * time.Second}

// Quick is a reduced window for tests and benchmarks: long enough for the
// protocols to reach steady state, short enough to iterate on.
var Quick = Durations{Warm: 25 * time.Second, Measure: 15 * time.Second}
