package engineobs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const benchOld = `{"go_version":"go1.22","results":[
	{"name":"forwarding","ns_per_op":100,"allocs_per_op":0},
	{"name":"city","ns_per_op":1000,"allocs_per_op":50,"sim_seconds_per_wall_second":40}
]}`

func TestDiffFilesBenchGating(t *testing.T) {
	oldPath := writeTemp(t, "old.json", benchOld)
	newPath := writeTemp(t, "new.json", `{"go_version":"go1.22","results":[
		{"name":"forwarding","ns_per_op":102,"allocs_per_op":2},
		{"name":"city","ns_per_op":1900,"allocs_per_op":50,"sim_seconds_per_wall_second":20},
		{"name":"fresh","ns_per_op":5,"allocs_per_op":1}
	]}`)

	th := DisabledThresholds()
	th.AllocsPct = 0
	th.RatePct = 25
	d, err := DiffFiles(oldPath, newPath, th)
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != "bench" {
		t.Fatalf("kind = %q, want bench", d.Kind)
	}
	regs := d.Regressions()
	if len(regs) != 2 {
		t.Fatalf("regressions = %+v, want allocs jump and rate halving", regs)
	}
	var gotAllocs, gotRate bool
	for _, r := range regs {
		switch {
		case r.Name == "forwarding" && r.Metric == "allocs/op":
			gotAllocs = true // 0 -> 2 at a 0% gate
		case r.Name == "city" && r.Metric == "sim_s/wall_s":
			gotRate = true // 40 -> 20 is -50%, past the 25% gate
		}
	}
	if !gotAllocs || !gotRate {
		t.Fatalf("wrong rows flagged: %+v", regs)
	}
	// ns/op nearly doubled but NsPct is disabled: must not regress.
	for _, r := range d.Rows {
		if r.Metric == "ns/op" && r.Regressed {
			t.Fatalf("ns/op gated while disabled: %+v", r)
		}
		if r.Name == "fresh" && !r.Missing {
			t.Fatalf("new-only benchmark not marked missing: %+v", r)
		}
	}

	var table bytes.Buffer
	d.WriteTable(&table)
	if !strings.Contains(table.String(), "2 regression(s)") {
		t.Fatalf("table summary wrong:\n%s", table.String())
	}
}

// TestDiffFilesBenchHeapCounters: entries that carry the exact event-queue
// counters get one ungated row per counter, per op, so two artifacts
// recorded at different iteration counts still compare; an old artifact
// without the lane counters reads as zero.
func TestDiffFilesBenchHeapCounters(t *testing.T) {
	oldPath := writeTemp(t, "old.json", `{"go_version":"go1.22","results":[
		{"name":"flow","ns_per_op":100,"allocs_per_op":0,"ops":10,
		 "heap":{"pushes":2000,"pops":1990,"cancelled_pops":150,"max_heap_len":798}},
		{"name":"cell","ns_per_op":100,"allocs_per_op":0}
	]}`)
	newPath := writeTemp(t, "new.json", `{"go_version":"go1.22","results":[
		{"name":"flow","ns_per_op":80,"allocs_per_op":0,"ops":20,
		 "heap":{"pushes":1600,"pops":1600,"cancelled_pops":0,"lane_pushes":4000,"lane_fallbacks":20,"max_heap_len":12}},
		{"name":"cell","ns_per_op":100,"allocs_per_op":0}
	]}`)
	th := DisabledThresholds()
	th.AllocsPct = 0
	d, err := DiffFiles(oldPath, newPath, th)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][2]float64{
		"pushes/op": {200, 80}, "pops/op": {199, 80}, "dead-pops/op": {15, 0},
		"lane-push/op": {0, 200}, "lane-fback/op": {0, 1}, "max-heap-len": {798, 12},
	}
	for _, r := range d.Rows {
		if w, ok := want[r.Metric]; ok {
			if r.Name != "flow" || r.Old != w[0] || r.New != w[1] || r.ThresholdPct >= 0 || r.Regressed {
				t.Errorf("row %+v, want flow %v ungated", r, w)
			}
			delete(want, r.Metric)
		}
	}
	if len(want) != 0 {
		t.Fatalf("heap rows missing: %v\n%+v", want, d.Rows)
	}
	if regs := d.Regressions(); len(regs) != 0 {
		t.Fatalf("informational heap rows regressed: %+v", regs)
	}
}

func TestDiffFilesBenchCrossGoVersionUngatesAllocs(t *testing.T) {
	oldPath := writeTemp(t, "old.json", benchOld)
	newPath := writeTemp(t, "new.json", `{"go_version":"go1.23","results":[
		{"name":"forwarding","ns_per_op":100,"allocs_per_op":3}
	]}`)
	th := DisabledThresholds()
	th.AllocsPct = 0
	d, err := DiffFiles(oldPath, newPath, th)
	if err != nil {
		t.Fatal(err)
	}
	if regs := d.Regressions(); len(regs) != 0 {
		t.Fatalf("cross-Go-version allocs diff gated: %+v", regs)
	}
}

func manifestJSON(t *testing.T, name string, eventsPerSec, simS, wallS float64, counters map[string]uint64, gauges map[string]float64) string {
	t.Helper()
	doc := map[string]any{
		"name": name, "seed": 1,
		"sim_seconds": simS, "wall_seconds": wallS,
		"events_processed": 1000, "events_per_sec": eventsPerSec,
		"counters": counters, "gauges": gauges,
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func TestDiffFilesManifests(t *testing.T) {
	oldPath := writeTemp(t, "old.manifest.json", manifestJSON(t, "city", 2e6, 60, 2,
		map[string]uint64{"bytes_delivered": 1000, "drops": 10}, map[string]float64{"old_only": 1}))
	newPath := writeTemp(t, "new.manifest.json", manifestJSON(t, "city", 1e6, 60, 4,
		map[string]uint64{"bytes_delivered": 800, "drops": 25}, nil))

	th := DisabledThresholds()
	th.RatePct = 20
	th.GoodputPct = 10
	th.MetricPct = map[string]float64{"drops": 50}
	d, err := DiffFiles(oldPath, newPath, th)
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != "manifest" {
		t.Fatalf("kind = %q, want manifest", d.Kind)
	}

	byMetric := map[string]DiffRow{}
	for _, r := range d.Rows {
		byMetric[r.Metric] = r
	}
	// events/s halved and sim rate halved: both past the 20% rate gate.
	if !byMetric["events_per_s"].Regressed || !byMetric["sim_s/wall_s"].Regressed {
		t.Fatalf("rate regressions not flagged: %+v", d.Rows)
	}
	// bytes_delivered is goodput-like: -20% past the 10% gate.
	if r := byMetric["bytes_delivered"]; !r.Regressed || !r.HigherIsBetter {
		t.Fatalf("goodput regression not flagged: %+v", r)
	}
	// drops is lower-is-better and +150%, past its named 50% gate.
	if r := byMetric["drops"]; !r.Regressed || r.HigherIsBetter {
		t.Fatalf("drops regression not flagged: %+v", r)
	}
	// A one-sided metric is informational, never gated.
	if r := byMetric["old_only"]; !r.Missing || r.Regressed {
		t.Fatalf("one-sided metric mishandled: %+v", r)
	}
}

func TestDiffFilesManifestImprovementsPass(t *testing.T) {
	oldPath := writeTemp(t, "old.manifest.json", manifestJSON(t, "city", 1e6, 60, 4,
		map[string]uint64{"bytes_delivered": 800, "drops": 25}, nil))
	newPath := writeTemp(t, "new.manifest.json", manifestJSON(t, "city", 2e6, 60, 2,
		map[string]uint64{"bytes_delivered": 1000, "drops": 10}, nil))
	th := DisabledThresholds()
	th.RatePct = 0
	th.GoodputPct = 0
	th.MetricPct = map[string]float64{"drops": 0}
	d, err := DiffFiles(oldPath, newPath, th)
	if err != nil {
		t.Fatal(err)
	}
	if regs := d.Regressions(); len(regs) != 0 {
		t.Fatalf("improvements flagged as regressions: %+v", regs)
	}
}

func TestDiffFilesRejectsMixedAndMalformed(t *testing.T) {
	bench := writeTemp(t, "bench.json", benchOld)
	manifest := writeTemp(t, "m.json", manifestJSON(t, "city", 1, 1, 1, nil, nil))
	if _, err := DiffFiles(bench, manifest, DisabledThresholds()); err == nil {
		t.Fatal("bench-vs-manifest diff accepted")
	}
	junk := writeTemp(t, "junk.json", `{"hello":"world"}`)
	if _, err := DiffFiles(junk, junk, DisabledThresholds()); err == nil {
		t.Fatal("unclassifiable JSON accepted")
	}
	notJSON := writeTemp(t, "x.json", "not json")
	if _, err := DiffFiles(notJSON, notJSON, DisabledThresholds()); err == nil {
		t.Fatal("non-JSON accepted")
	}
	if _, err := DiffFiles(filepath.Join(t.TempDir(), "missing.json"), bench, DisabledThresholds()); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestGateZeroBaseline(t *testing.T) {
	r := gate(DiffRow{Old: 0, New: 5, ThresholdPct: 0})
	if !r.Regressed || r.DeltaPct != 1e9 {
		t.Fatalf("0->5 lower-is-better at 0%% gate: %+v", r)
	}
	r = gate(DiffRow{Old: 0, New: 0, ThresholdPct: 0})
	if r.Regressed || r.DeltaPct != 0 {
		t.Fatalf("0->0 flagged: %+v", r)
	}
	r = gate(DiffRow{Old: 10, New: 10, ThresholdPct: 0})
	if r.Regressed {
		t.Fatalf("equal values flagged at 0%% gate: %+v", r)
	}
}
