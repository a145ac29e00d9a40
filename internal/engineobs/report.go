package engineobs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"tcppr/internal/metrics"
	"tcppr/internal/sim"
)

// Run-diff support for cmd/tcpreport: compare two BENCH_sim.json
// artifacts or two metrics manifests and report per-metric deltas, gating
// the ones a threshold covers. The bench JSON is parsed through local
// mirror structs rather than internal/bench so that bench can depend on
// this package (its suite carries engineobs entries) without a cycle.

// Thresholds selects which deltas fail a diff. Every field is the allowed
// worsening in percent; a negative value disables that gate. "Worsening"
// is direction-aware: an increase for lower-is-better metrics (allocs/op,
// ns/op, drops), a decrease for higher-is-better ones (sim rate, goodput,
// events/sec).
type Thresholds struct {
	// AllocsPct gates allocs/op (bench diffs). Allocation counts are
	// deterministic per Go version, so 0 — no increase at all — is the
	// natural CI setting.
	AllocsPct float64
	// NsPct gates ns/op (bench diffs). Wall timings are machine-noisy;
	// disabled unless explicitly set.
	NsPct float64
	// RatePct gates sim-s/wall-s (bench diffs) and events_per_s / sim
	// rate (manifest diffs).
	RatePct float64
	// GoodputPct gates the manifest rows recognized as delivered-bytes /
	// goodput counters.
	GoodputPct float64
	// MetricPct gates individual manifest counters/gauges by exact name,
	// overriding the heuristics.
	MetricPct map[string]float64
}

// DisabledThresholds returns a Thresholds with every gate off; set just
// the ones you mean to enforce.
func DisabledThresholds() Thresholds {
	return Thresholds{AllocsPct: -1, NsPct: -1, RatePct: -1, GoodputPct: -1}
}

// DiffRow is one compared metric.
type DiffRow struct {
	Name   string  `json:"name"`   // bench name or manifest metric group
	Metric string  `json:"metric"` // quantity within the group
	Old    float64 `json:"old"`
	New    float64 `json:"new"`
	// DeltaPct is (new-old)/old in percent; ±Inf is flattened to ±1e9
	// for JSON friendliness.
	DeltaPct       float64 `json:"delta_pct"`
	HigherIsBetter bool    `json:"higher_is_better"`
	// ThresholdPct is the allowed worsening; negative means ungated.
	ThresholdPct float64 `json:"threshold_pct"`
	Regressed    bool    `json:"regressed"`
	// Missing marks a row present in only one input (informational).
	Missing bool `json:"missing,omitempty"`
}

// Diff is the outcome of comparing two run files.
type Diff struct {
	Kind    string    `json:"kind"` // "bench" or "manifest"
	OldPath string    `json:"old"`
	NewPath string    `json:"new"`
	Rows    []DiffRow `json:"rows"`
}

// Regressions returns the rows that failed their gates.
func (d *Diff) Regressions() []DiffRow {
	var out []DiffRow
	for _, r := range d.Rows {
		if r.Regressed {
			out = append(out, r)
		}
	}
	return out
}

// WriteTable renders the diff, regressions marked with '!'.
func (d *Diff) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "%s diff: %s -> %s\n", d.Kind, d.OldPath, d.NewPath)
	fmt.Fprintf(w, "  %-40s %-12s %14s %14s %9s %6s\n", "name", "metric", "old", "new", "delta", "gate")
	for _, r := range d.Rows {
		mark := " "
		if r.Regressed {
			mark = "!"
		}
		gate := "-"
		if r.ThresholdPct >= 0 {
			gate = fmt.Sprintf("%g%%", r.ThresholdPct)
		}
		delta := fmt.Sprintf("%+.1f%%", r.DeltaPct)
		if r.Missing {
			delta, gate = "new", "-"
		}
		fmt.Fprintf(w, "%s %-40s %-12s %14.6g %14.6g %9s %6s\n",
			mark, r.Name, r.Metric, r.Old, r.New, delta, gate)
	}
	if regs := d.Regressions(); len(regs) > 0 {
		fmt.Fprintf(w, "%d regression(s) past thresholds\n", len(regs))
	} else {
		fmt.Fprintln(w, "no regressions")
	}
}

// benchDoc mirrors the BENCH_sim.json layout (see internal/bench).
type benchDoc struct {
	GoVersion string       `json:"go_version"`
	Results   []benchEntry `json:"results"`
}

type benchEntry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	SimRate     float64 `json:"sim_seconds_per_wall_second"`
	// Ops and Heap are the entry's exact event-queue counters (absent from
	// entries whose scheduler is out of the harness's reach).
	Ops  float64    `json:"ops"`
	Heap *sim.Stats `json:"heap"`
}

// DiffFiles loads two run files — both BENCH_sim.json artifacts or both
// metrics manifests, auto-detected — and diffs them under th.
func DiffFiles(oldPath, newPath string, th Thresholds) (*Diff, error) {
	oldKind, oldRaw, err := sniff(oldPath)
	if err != nil {
		return nil, err
	}
	newKind, newRaw, err := sniff(newPath)
	if err != nil {
		return nil, err
	}
	if oldKind != newKind {
		return nil, fmt.Errorf("engineobs: cannot diff %s file %s against %s file %s",
			oldKind, oldPath, newKind, newPath)
	}
	d := &Diff{Kind: oldKind, OldPath: oldPath, NewPath: newPath}
	switch oldKind {
	case "bench":
		var ob, nb benchDoc
		if err := json.Unmarshal(oldRaw, &ob); err != nil {
			return nil, fmt.Errorf("engineobs: %s: %w", oldPath, err)
		}
		if err := json.Unmarshal(newRaw, &nb); err != nil {
			return nil, fmt.Errorf("engineobs: %s: %w", newPath, err)
		}
		d.Rows = diffBench(ob, nb, th)
	case "manifest":
		om, err := metrics.ReadManifest(oldPath)
		if err != nil {
			return nil, err
		}
		nm, err := metrics.ReadManifest(newPath)
		if err != nil {
			return nil, err
		}
		d.Rows = diffManifests(om, nm, th)
	}
	return d, nil
}

// sniff classifies a run file: a top-level "results" array marks a bench
// artifact, "name" plus "sim_seconds" a manifest.
func sniff(path string) (string, []byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", nil, err
	}
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(raw, &probe); err != nil {
		return "", nil, fmt.Errorf("engineobs: %s is not a JSON object: %w", path, err)
	}
	if _, ok := probe["results"]; ok {
		return "bench", raw, nil
	}
	if _, ok := probe["sim_seconds"]; ok {
		return "manifest", raw, nil
	}
	return "", nil, fmt.Errorf("engineobs: %s is neither a BENCH_sim.json artifact nor a metrics manifest", path)
}

func diffBench(old, new benchDoc, th Thresholds) []DiffRow {
	byName := map[string]benchEntry{}
	for _, e := range old.Results {
		byName[e.Name] = e
	}
	var rows []DiffRow
	for _, n := range new.Results {
		o, ok := byName[n.Name]
		if !ok {
			rows = append(rows, DiffRow{Name: n.Name, Metric: "allocs/op", New: n.AllocsPerOp,
				ThresholdPct: -1, Missing: true})
			continue
		}
		allocsPct := th.AllocsPct
		if old.GoVersion != "" && new.GoVersion != "" && old.GoVersion != new.GoVersion {
			// Alloc counts are only comparable within one Go version;
			// cross-version diffs keep the row informational.
			allocsPct = -1
		}
		rows = append(rows, gate(DiffRow{Name: n.Name, Metric: "allocs/op",
			Old: o.AllocsPerOp, New: n.AllocsPerOp, ThresholdPct: allocsPct}))
		rows = append(rows, gate(DiffRow{Name: n.Name, Metric: "ns/op",
			Old: o.NsPerOp, New: n.NsPerOp, ThresholdPct: th.NsPct}))
		if o.SimRate > 0 || n.SimRate > 0 {
			rows = append(rows, gate(DiffRow{Name: n.Name, Metric: "sim_s/wall_s",
				Old: o.SimRate, New: n.SimRate, HigherIsBetter: true, ThresholdPct: th.RatePct}))
		}
		if o.Heap != nil && n.Heap != nil && o.Ops > 0 && n.Ops > 0 {
			// Queue counters are exact per op, so the rows are comparable
			// across machines and iteration counts; informational, ungated.
			perOp := func(metric string, oc, nc uint64) {
				rows = append(rows, gate(DiffRow{Name: n.Name, Metric: metric,
					Old: float64(oc) / o.Ops, New: float64(nc) / n.Ops, ThresholdPct: -1}))
			}
			perOp("pushes/op", o.Heap.Pushes, n.Heap.Pushes)
			perOp("pops/op", o.Heap.Pops, n.Heap.Pops)
			perOp("dead-pops/op", o.Heap.CancelledPops, n.Heap.CancelledPops)
			perOp("lane-push/op", o.Heap.LanePushes, n.Heap.LanePushes)
			perOp("lane-fback/op", o.Heap.LaneFallbacks, n.Heap.LaneFallbacks)
			rows = append(rows, gate(DiffRow{Name: n.Name, Metric: "max-heap-len",
				Old: float64(o.Heap.MaxHeapLen), New: float64(n.Heap.MaxHeapLen), ThresholdPct: -1}))
		}
	}
	return rows
}

func diffManifests(old, new *metrics.Manifest, th Thresholds) []DiffRow {
	var rows []DiffRow
	add := func(metric string, o, n float64, higher bool, pct float64) {
		rows = append(rows, gate(DiffRow{Name: new.Name, Metric: metric,
			Old: o, New: n, HigherIsBetter: higher, ThresholdPct: pct}))
	}
	add("events_per_s", old.EventsPerSec, new.EventsPerSec, true, th.RatePct)
	oldRate, newRate := 0.0, 0.0
	if old.WallSeconds > 0 {
		oldRate = old.SimSeconds / old.WallSeconds
	}
	if new.WallSeconds > 0 {
		newRate = new.SimSeconds / new.WallSeconds
	}
	add("sim_s/wall_s", oldRate, newRate, true, th.RatePct)

	names := map[string][2]float64{}
	seen := map[string][2]bool{}
	collect := func(m map[string]float64, idx int) {
		for k, v := range m {
			pair := names[k]
			pair[idx] = v
			names[k] = pair
			mk := seen[k]
			mk[idx] = true
			seen[k] = mk
		}
	}
	counters := func(m map[string]uint64) map[string]float64 {
		out := make(map[string]float64, len(m))
		for k, v := range m {
			out[k] = float64(v)
		}
		return out
	}
	collect(counters(old.Counters), 0)
	collect(counters(new.Counters), 1)
	collect(old.Gauges, 0)
	collect(new.Gauges, 1)

	keys := make([]string, 0, len(names))
	for k := range names {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		pair, present := names[k], seen[k]
		if !present[0] || !present[1] {
			rows = append(rows, DiffRow{Name: new.Name, Metric: k,
				Old: pair[0], New: pair[1], ThresholdPct: -1, Missing: true})
			continue
		}
		higher := higherIsBetter(k)
		pct := -1.0
		if v, ok := th.MetricPct[k]; ok {
			pct = v
		} else if higher && isGoodput(k) {
			pct = th.GoodputPct
		}
		add(k, pair[0], pair[1], higher, pct)
	}
	return rows
}

// higherIsBetter classifies a manifest metric by name: loss-flavored
// quantities worsen upward, everything else (deliveries, goodput,
// transfer counts) worsens downward.
func higherIsBetter(name string) bool {
	for _, bad := range []string{"drop", "loss", "violation", "abort", "retx", "rto", "timeout", "evict", "overflow"} {
		if strings.Contains(name, bad) {
			return false
		}
	}
	return true
}

// isGoodput recognizes the delivered-byte counters GoodputPct covers.
func isGoodput(name string) bool {
	return strings.Contains(name, "goodput") ||
		strings.HasSuffix(name, "bytes_acked") ||
		strings.HasSuffix(name, "bytes_delivered") ||
		strings.HasSuffix(name, "unique_bytes")
}

// gate fills DeltaPct and Regressed.
func gate(r DiffRow) DiffRow {
	switch {
	case r.Old == 0 && r.New == 0:
		r.DeltaPct = 0
	case r.Old == 0:
		r.DeltaPct = math.Copysign(1e9, r.New)
	default:
		r.DeltaPct = (r.New - r.Old) / math.Abs(r.Old) * 100
	}
	if r.ThresholdPct >= 0 {
		worsening := r.DeltaPct
		if r.HigherIsBetter {
			worsening = -r.DeltaPct
		}
		// Strict inequality with a hair of slack: a 0% threshold fails
		// only genuine worsening, never float jitter on equal values.
		r.Regressed = worsening > r.ThresholdPct+1e-9
	}
	return r
}
