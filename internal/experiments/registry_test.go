package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"tcppr/internal/runobs"
)

// TestRegistryNamesStable pins the CLI-visible experiment names: renaming or
// dropping one silently breaks scripts that invoke `experiments -run <name>`.
func TestRegistryNamesStable(t *testing.T) {
	want := []string{
		"fig2", "fig3", "fig4", "fig6",
		"ablation-beta", "ablation-memorize", "ablation-sendcwnd", "ablation-holemode",
		"ext-threshold", "ext-reorder", "ext-robustness", "ext-door",
		"city", "faultmatrix", "churnmatrix", "reordermatrix", "repairmatrix",
	}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names()[%d] = %q, want %q (full: %v)", i, got[i], want[i], got)
		}
	}
}

func TestRegistryLookup(t *testing.T) {
	for _, name := range Names() {
		s, ok := Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) not found", name)
		}
		if s.Name != name {
			t.Fatalf("Lookup(%q).Name = %q", name, s.Name)
		}
		if s.Describe == "" {
			t.Errorf("spec %q has no description", name)
		}
		if s.run == nil {
			t.Fatalf("spec %q has no runner", name)
		}
	}
	if _, ok := Lookup("fig99"); ok {
		t.Fatal("Lookup of unknown name succeeded")
	}
}

func TestRegistryIsACopy(t *testing.T) {
	r := Registry()
	if len(r) == 0 {
		t.Fatal("empty registry")
	}
	r[0] = Spec{Name: "clobbered"}
	if specs[0].Name == "clobbered" {
		t.Fatal("Registry() exposes the internal slice")
	}
}

// updateSmoke re-records results/registry_smoke.sha256 from this tree.
var updateSmoke = flag.Bool("update", false, "rewrite "+smokePinPath+" from this tree's experiments")

// smokePinPath is the byte-level pin of every spec's Smoke + Quick run.
const smokePinPath = "../../results/registry_smoke.sha256"

// TestRegistryRoundTrip runs every registered experiment end to end under
// Quick durations with Smoke trimming and checks each produces a non-empty
// table set and writes its advertised CSV files. CheckInvariants is on, so
// this doubles as the conformance gate: a single oracle violation in any
// cell of any experiment fails the round trip.
//
// It is also the experiments' byte-level pin: every run writes -metrics
// too, and the sha256 of each CSV, manifest, series TSV and of the printed
// tables must match results/registry_smoke.sha256. Wall-clock bytes are
// left out: manifest wall_seconds/events_per_sec, the city table's wall
// and rate columns, and heartbeat and engine files (presence only).
//
//	go test -run TestRegistryRoundTrip ./internal/experiments            # compare
//	go test -run TestRegistryRoundTrip ./internal/experiments -update    # re-record
func TestRegistryRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment; skipped in -short mode")
	}
	want := readSmokePin(t)
	var mu sync.Mutex
	got := map[string]map[string]string{}
	if *updateSmoke {
		t.Cleanup(func() { writeSmokePin(t, got) })
	}
	for _, spec := range Registry() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			tables, err := spec.Run(RunConfig{Durations: Quick, CSVDir: dir, Smoke: true,
				Obs: runobs.NewSession(runobs.Options{Check: true, MetricsDir: dir})})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if len(tables) == 0 {
				t.Fatal("report has no tables")
			}
			var printed strings.Builder
			for i, tb := range tables {
				if tb == nil {
					t.Fatalf("table %d is nil", i)
				}
				if len(tb.Rows) == 0 {
					t.Errorf("table %d (%q) has no rows", i, tb.Title)
				}
				var sb strings.Builder
				if err := dropWallColumns(tb).Fprint(&sb); err != nil {
					t.Fatalf("table %d print: %v", i, err)
				}
				if sb.Len() == 0 {
					t.Errorf("table %d (%q) prints empty", i, tb.Title)
				}
				printed.WriteString(sb.String())
			}
			for _, tb := range tables {
				if tb.csv == "" {
					continue
				}
				data, err := os.ReadFile(filepath.Join(dir, tb.csv))
				if err != nil {
					t.Fatalf("CSV %s not written: %v", tb.csv, err)
				}
				if len(data) == 0 {
					t.Errorf("CSV %s is empty", tb.csv)
				}
			}
			sums := smokeSums(t, dir)
			sums["tables"] = sha(printed.String())
			mu.Lock()
			got[spec.Name] = sums
			mu.Unlock()
			if !*updateSmoke {
				compareSmoke(t, want[spec.Name], sums)
			}
		})
	}
}

func sha(s string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(s))) }

// wallColumns are the table columns whose cells read the host's clock.
var wallColumns = map[string]bool{"wall_s": true, "sim_s/wall_s": true, "speedup": true}

// dropWallColumns returns t with every wall-clock column blanked.
func dropWallColumns(t *Table) *Table {
	out := &Table{Title: t.Title, Header: t.Header}
	for _, row := range t.Rows {
		r := append([]string(nil), row...)
		for i, h := range t.Header {
			if wallColumns[h] && i < len(r) {
				r[i] = "-"
			}
		}
		out.Rows = append(out.Rows, r)
	}
	return out
}

// smokeSums hashes every file a smoke run left in dir: "-" for wall-clock
// files, manifests without their wall-clock fields, CSVs without their
// wall-clock columns, everything else verbatim.
func smokeSums(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sums := map[string]string{}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".heartbeat.jsonl") || strings.Contains(name, ".engine.") {
			sums[name] = "-"
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case strings.HasSuffix(name, ".manifest.json") || strings.HasSuffix(name, "_run.json"):
			var m map[string]any
			if err := json.Unmarshal(raw, &m); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			delete(m, "wall_seconds")
			delete(m, "events_per_sec")
			if raw, err = json.Marshal(m); err != nil {
				t.Fatal(err)
			}
		case strings.HasSuffix(name, ".csv"):
			rows, err := csv.NewReader(bytes.NewReader(raw)).ReadAll()
			if err != nil || len(rows) == 0 {
				t.Fatalf("%s: %v", name, err)
			}
			tb := dropWallColumns(&Table{Header: rows[0], Rows: rows[1:]})
			var b bytes.Buffer
			if err := tb.WriteCSV(&b); err != nil {
				t.Fatal(err)
			}
			raw = b.Bytes()
		}
		sums[name] = sha(string(raw))
	}
	return sums
}

func compareSmoke(t *testing.T, want, got map[string]string) {
	t.Helper()
	if want == nil {
		t.Fatalf("%s pins nothing for this experiment (re-record with -update)", smokePinPath)
	}
	for name, sum := range want {
		switch g, ok := got[name]; {
		case !ok:
			t.Errorf("%s: not produced", name)
		case g != sum:
			t.Errorf("%s: sha256 %s, pinned %s", name, g, sum)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: produced but not pinned", name)
		}
	}
}

func readSmokePin(t *testing.T) map[string]map[string]string {
	t.Helper()
	raw, err := os.ReadFile(smokePinPath)
	if err != nil {
		if *updateSmoke {
			return nil
		}
		t.Fatalf("%v (re-record with -update)", err)
	}
	want := map[string]map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sum, file, ok := strings.Cut(line, "  ")
		spec, name, ok2 := strings.Cut(file, "/")
		if !ok || !ok2 {
			t.Fatalf("%s: malformed line %q", smokePinPath, line)
		}
		if want[spec] == nil {
			want[spec] = map[string]string{}
		}
		want[spec][name] = sum
	}
	return want
}

func writeSmokePin(t *testing.T, got map[string]map[string]string) {
	if t.Failed() {
		return
	}
	var b strings.Builder
	b.WriteString("# sha256 of every table, CSV, manifest and series TSV of each experiment's Smoke + Quick run.\n")
	b.WriteString("# \"-\" pins presence only (wall-clock content). Re-record: go test -run TestRegistryRoundTrip ./internal/experiments -update\n")
	for _, spec := range Names() {
		names := make([]string, 0, len(got[spec]))
		for n := range got[spec] {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "\n")
		for _, n := range names {
			fmt.Fprintf(&b, "%s  %s/%s\n", got[spec][n], spec, n)
		}
	}
	if err := os.WriteFile(smokePinPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRegistrySeedChangesFig6 checks the Seed field actually reaches the
// underlying declaration, in Smoke and in the full ext-door run (quick
// windows, which once ran seed 42 whatever -seed said).
func TestRegistrySeedChangesFig6(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig6 and ext-door twice each; skipped in -short mode")
	}
	for _, tc := range []struct {
		name  string
		smoke bool
	}{{"fig6", true}, {"ext-door", false}} {
		run := func(seed int64) string {
			spec, _ := Lookup(tc.name)
			tables, err := spec.Run(RunConfig{Durations: Quick, Seed: seed, Smoke: tc.smoke})
			if err != nil {
				t.Fatalf("%s: Run: %v", tc.name, err)
			}
			var sb strings.Builder
			for _, tb := range tables {
				if err := tb.Fprint(&sb); err != nil {
					t.Fatal(err)
				}
			}
			return sb.String()
		}
		if run(1) == run(2) {
			t.Errorf("%s tables identical under different seeds; Seed not plumbed", tc.name)
		}
	}
}

func TestSetParallelism(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(1)
	if got := Parallelism(); got != 1 {
		t.Fatalf("Parallelism() = %d after SetParallelism(1)", got)
	}
	// With a single worker parallelMap must still visit every index in order.
	out := parallelMap(8, func(i int) int { return i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	SetParallelism(-3)
	if got := Parallelism(); got <= 0 {
		t.Fatalf("Parallelism() = %d after reset", got)
	}
}
