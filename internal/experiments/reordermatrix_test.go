package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tcppr/internal/netem"
	"tcppr/internal/runobs"
	"tcppr/internal/workload"
)

// reorderCSV renders a result's two tables as one CSV byte stream — the
// exact artifact shape the registry writes, so byte equality here is byte
// equality of the published files.
func reorderCSV(t *testing.T, res ReorderMatrixResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.Table().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := res.DisplacementTable().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReorderMatrix runs the full cross product — every registered
// variant against every cataloged reorder model — and checks the
// acceptance physics: the in-order baseline row is healthy, every
// reordering cell actually reordered, custody closes, and the paper's
// headline holds (TCP-PR beats the fast-retransmit protocols under
// high-displacement swaps).
func TestReorderMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full 11-variant × all-models cross product; skipped in -short mode")
	}
	inv := runobs.NewSession(runobs.Options{Check: true})
	cfg := ReorderMatrixConfig{Total: 12 * time.Second, Seed: 1, Obs: inv}
	res, err := RunReorderMatrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(netem.ReorderScenarioNames()) * len(workload.AllProtocols())
	if len(res.Cells) != wantCells {
		t.Fatalf("matrix has %d cells, want %d (all models x all variants)", len(res.Cells), wantCells)
	}
	if err := inv.Err(); err != nil {
		t.Fatalf("invariant violations across the matrix: %v", err)
	}

	byKey := map[string]ReorderMatrixCell{}
	for _, c := range res.Cells {
		byKey[c.Model+"/"+c.Protocol] = c
	}
	for _, c := range res.Cells {
		if c.GoodputMbps <= 0 {
			t.Errorf("%s/%s delivered nothing", c.Model, c.Protocol)
		}
		if c.Released > c.Held {
			t.Errorf("%s/%s custody ledger: released %d > held %d", c.Model, c.Protocol, c.Released, c.Held)
		}
		if c.Model == "none" {
			if c.ReorderRate != 0 || c.LateArrivals != 0 {
				t.Errorf("in-order baseline %s measured reordering: rate %.3f, late %d",
					c.Protocol, c.ReorderRate, c.LateArrivals)
			}
			if c.GoodputMbps < 12 {
				t.Errorf("baseline %s goodput = %.2f Mbps, want ~13 (15 Mbps bottleneck)", c.Protocol, c.GoodputMbps)
			}
			continue
		}
		// Every non-baseline model must actually scramble the stream.
		if c.LateArrivals == 0 {
			t.Errorf("%s/%s saw no late arrivals — the model did nothing", c.Model, c.Protocol)
		}
		if c.KBound <= 0 {
			t.Errorf("%s/%s k-bound = %d, want > 0", c.Model, c.Protocol, c.KBound)
		}
	}

	// swap-distance displacement never exceeds its configured bound: the
	// swap-low probability vector has 5 entries, so no arrival can be more
	// than 5 positions late at the receiver.
	for _, p := range workload.AllProtocols() {
		if c := byKey["swap-low/"+p]; c.KBound > 5 {
			t.Errorf("swap-low/%s k-bound %d exceeds the model's 5-swap ceiling", p, c.KBound)
		}
	}

	// The acceptance headline: under persistent high-displacement
	// reordering, TCP-PR's timer-based loss detection keeps the pipe full
	// while the dup-ACK protocols collapse into spurious fast retransmits.
	pr := byKey["swap-high/"+workload.TCPPR]
	for _, rival := range []string{workload.NewReno, workload.TDFR} {
		r := byKey["swap-high/"+rival]
		if pr.GoodputMbps < 2*r.GoodputMbps {
			t.Errorf("TCP-PR %.2f Mbps does not beat %s %.2f Mbps under swap-high",
				pr.GoodputMbps, rival, r.GoodputMbps)
		}
	}
	if pr.GoodputMbps < 10 {
		t.Errorf("TCP-PR goodput %.2f Mbps under swap-high, want near line rate", pr.GoodputMbps)
	}
}

// TestReorderMatrixDeterministic is the fixed-seed replay guarantee: the
// same (seed, model) config renders byte-identical tables — including
// the per-cell displacement distributions — across independent runs.
func TestReorderMatrixDeterministic(t *testing.T) {
	run := func() []byte {
		res, err := RunReorderMatrix(ReorderMatrixConfig{
			Protocols: []string{workload.TCPPR, workload.NewReno, workload.TDFR},
			Models:    []string{"swap-low", "swap-high", "coalesce", "stripe"},
			Total:     5 * time.Second,
			Seed:      7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return reorderCSV(t, res)
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed matrix runs rendered different artifacts:\n--- run A ---\n%s\n--- run B ---\n%s", a, b)
	}
	// Non-vacuous: a different seed must permute the streams differently.
	res, err := RunReorderMatrix(ReorderMatrixConfig{
		Protocols: []string{workload.TCPPR, workload.NewReno, workload.TDFR},
		Models:    []string{"swap-low", "swap-high", "coalesce", "stripe"},
		Total:     5 * time.Second,
		Seed:      8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, reorderCSV(t, res)) {
		t.Fatal("different seeds rendered identical artifacts — the seed is not reaching the models")
	}
}

// TestReorderMatrixSpanTSVDeterministic pins the stronger per-cell
// guarantee: same (seed, model) reproduces the identical event sequence,
// down to the byte, in the exported span TSV.
func TestReorderMatrixSpanTSVDeterministic(t *testing.T) {
	run := func(dir string) {
		_, err := RunReorderMatrix(ReorderMatrixConfig{
			Protocols: []string{workload.TCPPR},
			Models:    []string{"swap-high"},
			Total:     4 * time.Second,
			Seed:      3,
			Obs:       runobs.NewSession(runobs.Options{TraceDir: dir}),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	run(dirA)
	run(dirB)
	name := "reordermatrix_swap-high_TCP-PR.spans.tsv"
	a, err := os.ReadFile(filepath.Join(dirA, name))
	if err != nil {
		t.Fatalf("span TSV missing: %v", err)
	}
	b, err := os.ReadFile(filepath.Join(dirB, name))
	if err != nil {
		t.Fatalf("span TSV missing: %v", err)
	}
	if len(a) == 0 {
		t.Fatal("span TSV is empty")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed cell runs exported different span TSVs")
	}
}
