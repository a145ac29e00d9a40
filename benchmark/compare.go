package main

import (
	"fmt"
	"io"
)

// Verdicts of one (workload, end-to-end metric) pair.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// worseBy is how much worse b's median is than a's, as a share of a's, in
// the metric's own direction; negative when b is better.
func worseBy(d metricDef, a, b sample) float64 {
	if a.Median == 0 {
		return 0
	}
	delta := (b.Median - a.Median) / a.Median
	if d.better == higher {
		return -delta
	}
	return delta
}

// spread is the distance between a sample's quartiles as a share of its
// median.
func spread(s sample) float64 { return ratio(s.Q3-s.Q1, s.Median) }

// allBetter reports whether every repetition of b read better than every
// repetition of a.
func allBetter(d metricDef, a, b sample) bool {
	if d.better == higher {
		return b.Min > a.Max
	}
	return b.Max < a.Min
}

// verdict applies the benchmark's rule: worse than the bound is a
// regression; within it, a pair whose repetitions scatter wider than the
// bound is unresolved, not unchanged, unless b won every repetition.
func verdict(d metricDef, a, b sample) string {
	switch {
	case worseBy(d, a, b) > d.bound:
		return verdictRegressed
	case (spread(a) > d.bound || spread(b) > d.bound) && !allBetter(d, a, b):
		return verdictUnresolved
	}
	return verdictOK
}

// compareFiles prints one row per workload and end-to-end metric of two
// documents, a (the parent) and b (the change), and returns the exit code:
// 1 when a metric regressed or a larger share of operations failed.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readDocument(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	b, err := readDocument(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	bad := compareDocuments(a, b, stdout)
	if bad > 0 {
		fmt.Fprintf(stdout, "\n%d regressed or newly failing\n", bad)
		return 1
	}
	return 0
}

func compareDocuments(a, b *document, out io.Writer) (bad int) {
	fmt.Fprintf(out, "A: %s, %d CPU, GOMAXPROCS %d, seed %d\nB: %s, %d CPU, GOMAXPROCS %d, seed %d\n",
		a.GoVersion, a.NumCPU, a.GOMAXPROCS, a.Seed, b.GoVersion, b.NumCPU, b.GOMAXPROCS, b.Seed)
	for _, w := range workloads {
		wa, wb := a.Workloads[w.name], b.Workloads[w.name]
		if wa == nil || wb == nil {
			continue
		}
		fmt.Fprintln(out)
		bad += compareRuns(out, w.name+", per layer", wa.PerLayer, wb.PerLayer)
		bad += compareRuns(out, w.name+", end to end", wa.EndToEnd, wb.EndToEnd)
		if wa.EndToEnd == nil || wb.EndToEnd == nil {
			continue
		}
		fmt.Fprintf(out, "  %-20s %12s %25s %12s %25s %8s %6s  %s\n", "metric", "A median", "A min-max", "B median", "B min-max", "worse", "bound", "verdict")
		for _, d := range endToEnd {
			sa, oka := wa.EndToEnd.Metrics[d.name]
			sb, okb := wb.EndToEnd.Metrics[d.name]
			if !oka || !okb {
				continue
			}
			v := verdict(d, sa, sb)
			if v == verdictRegressed {
				bad++
			}
			fmt.Fprintf(out, "  %-20s %12.6g %25s %12.6g %25s %+7.2f%% %5.0f%%  %s\n", d.name,
				sa.Median, fmt.Sprintf("%.6g-%.6g", sa.Min, sa.Max), sb.Median, fmt.Sprintf("%.6g-%.6g", sb.Min, sb.Max),
				100*worseBy(d, sa, sb), 100*d.bound, v)
		}
	}
	return bad
}

// compareRuns prints what two runs of one half simulated and how many of
// their operations failed, and returns 1 when a larger share fails in b.
func compareRuns(out io.Writer, title string, a, b *runDoc) (bad int) {
	if a == nil || b == nil {
		return 0
	}
	same := "same"
	if a.StateDigest != b.StateDigest || a.Events != b.Events {
		same = "DIFFERENT"
	}
	fmt.Fprintf(out, "%s: failed %d/%d -> %d/%d, simulated state %s (digest %.12s -> %.12s, events %d -> %d)\n",
		title, a.OpsFailed, a.OpsAttempted, b.OpsFailed, b.OpsAttempted, same, a.StateDigest, b.StateDigest, a.Events, b.Events)
	if ratio(float64(b.OpsFailed), float64(b.OpsAttempted)) > ratio(float64(a.OpsFailed), float64(a.OpsAttempted)) {
		fmt.Fprintf(out, "  more operations fail\n")
		return 1
	}
	return 0
}
