// Package stats computes the metrics the paper reports: windowed
// throughput, normalized throughput (§4), the coefficient of variation of
// normalized throughput (Fig 3), and small summary helpers.
package stats

import (
	"math"
	"time"
)

// Throughput converts bytes transferred over a window into bits/second.
func Throughput(bytes int64, window time.Duration) float64 {
	if window <= 0 {
		return 0
	}
	return float64(bytes) * 8 / window.Seconds()
}

// Mbps converts bits/second to megabits/second.
func Mbps(bps float64) float64 { return bps / 1e6 }

// Normalized returns each flow's throughput divided by the mean across
// all flows: T_i = x_i / (Σx_j / n) (§4). A flow at exactly the average
// gets 1. The result is nil when xs is empty or the total is zero.
func Normalized(xs []float64) []float64 {
	if len(xs) == 0 {
		return nil
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	if sum == 0 {
		return nil
	}
	mean := sum / float64(len(xs))
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x / mean
	}
	return out
}

// Mean returns the arithmetic mean (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// CoV returns the coefficient of variation σ/μ of xs, the paper's Fig 3
// metric (0 when the mean is zero).
func CoV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / m
}

// MinMax returns the smallest and largest elements (0,0 for empty).
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// JainIndex returns Jain's fairness index (Σx)²/(n·Σx²) — a standard
// companion to the paper's normalized-throughput fairness view. It is 1
// for perfectly equal allocations and 1/n when one flow takes everything.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}
