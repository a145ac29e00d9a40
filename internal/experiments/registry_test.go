package experiments

import (
	"os"
	"path/filepath"
	"strings"
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
		if s.Run == nil {
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

// TestRegistryRoundTrip runs every registered experiment end to end under
// Quick durations with Smoke trimming and checks each produces a non-empty
// Report and writes its advertised CSV files. CheckInvariants is on, so
// this doubles as the conformance gate: a single oracle violation in any
// cell of any experiment fails the round trip.
func TestRegistryRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment; skipped in -short mode")
	}
	for _, spec := range Registry() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			rep, err := spec.Run(RunConfig{Durations: Quick, CSVDir: dir, Smoke: true, Obs: runobs.NewSession(runobs.Options{Check: true})})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			tables := rep.Tables()
			if len(tables) == 0 {
				t.Fatal("report has no tables")
			}
			for i, tb := range tables {
				if tb == nil {
					t.Fatalf("table %d is nil", i)
				}
				if len(tb.Rows) == 0 {
					t.Errorf("table %d (%q) has no rows", i, tb.Title)
				}
				var sb strings.Builder
				if err := tb.Fprint(&sb); err != nil {
					t.Fatalf("table %d print: %v", i, err)
				}
				if sb.Len() == 0 {
					t.Errorf("table %d (%q) prints empty", i, tb.Title)
				}
			}
			for _, f := range rep.(report).csvs {
				data, err := os.ReadFile(filepath.Join(dir, f.Name))
				if err != nil {
					t.Fatalf("CSV %s not written: %v", f.Name, err)
				}
				if len(data) == 0 {
					t.Errorf("CSV %s is empty", f.Name)
				}
			}
		})
	}
}

// TestRegistrySeedChangesFig6 checks the Seed field actually reaches the
// underlying experiment config.
func TestRegistrySeedChangesFig6(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig6 twice; skipped in -short mode")
	}
	run := func(seed int64) string {
		spec, _ := Lookup("fig6")
		rep, err := spec.Run(RunConfig{Durations: Quick, Seed: seed, Smoke: true})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		var sb strings.Builder
		for _, tb := range rep.Tables() {
			if err := tb.Fprint(&sb); err != nil {
				t.Fatal(err)
			}
		}
		return sb.String()
	}
	a := run(1)
	b := run(2)
	if a == b {
		t.Fatal("fig6 tables identical under different seeds; Seed not plumbed")
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
