package experiments

import (
	"bytes"
	"testing"
	"time"

	"tcppr/internal/netem"
	"tcppr/internal/runobs"
	"tcppr/internal/workload"
)

// repairCSV renders a result's two tables as one CSV byte stream — the
// exact artifact shape the registry writes, so byte equality here is byte
// equality of the published files.
func repairCSV(t *testing.T, res RepairMatrixResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.Table().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := res.DetailTable().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRepairMatrix runs the full cross product — every repair scenario ×
// every default reorder model × every registered variant — with the
// invariant oracle attached, and checks the acceptance physics: custody
// closes in every cell (the repair-ledger rule across the whole matrix), a
// box-equipped cell actually repairs (residual reordering below the
// box-free cell), and the repair box rescues a dupack-threshold sender
// that the raw swap model would collapse.
func TestRepairMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full boxes × models × 11-variant cross product; skipped in -short mode")
	}
	inv := runobs.NewSession(runobs.Options{Check: true})
	cfg := RepairMatrixConfig{Total: 12 * time.Second, Seed: 1, Obs: inv}
	res, err := RunRepairMatrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(netem.RepairScenarioNames()) * 3 * len(workload.AllProtocols())
	if len(res.Cells) != wantCells {
		t.Fatalf("matrix has %d cells, want %d (all boxes x default models x all variants)",
			len(res.Cells), wantCells)
	}
	if err := inv.Err(); err != nil {
		t.Fatalf("invariant violations across the matrix: %v", err)
	}

	byKey := map[string]RepairMatrixCell{}
	for _, c := range res.Cells {
		byKey[c.Box+"/"+c.Model+"/"+c.Protocol] = c
	}
	for _, c := range res.Cells {
		if c.GoodputMbps <= 0 {
			t.Errorf("%s/%s/%s delivered nothing", c.Box, c.Model, c.Protocol)
		}
		// After the per-cell Flush, custody must have closed exactly.
		if c.Held != c.Released {
			t.Errorf("%s/%s/%s custody open at quiescence: held %d, released %d",
				c.Box, c.Model, c.Protocol, c.Held, c.Released)
		}
		if c.Box == "none" && (c.Held != 0 || c.TimedOut != 0) {
			t.Errorf("box-free cell %s/%s shows middlebox activity", c.Model, c.Protocol)
		}
	}

	// The default box must take custody somewhere: swap-high displaces far
	// enough that every variant's stream needs repair.
	for _, p := range workload.AllProtocols() {
		if c := byKey["repair/swap-high/"+p]; c.Held == 0 {
			t.Errorf("repair/swap-high/%s held nothing — the box never engaged", p)
		}
	}

	// Repair physics: with the box in place a dupack-threshold sender sees
	// a (near-)ordered stream again, so its spurious-retransmission load
	// and residual reordering both drop versus the box-free cell, and its
	// goodput recovers.
	for _, p := range []string{workload.NewReno, workload.TCPSACK} {
		raw := byKey["none/swap-high/"+p]
		fix := byKey["repair/swap-high/"+p]
		if fix.ReorderRate >= raw.ReorderRate && raw.ReorderRate > 0 {
			t.Errorf("%s residual reorder rate %.3f with box >= %.3f without — no repair happened",
				p, fix.ReorderRate, raw.ReorderRate)
		}
		if fix.GoodputMbps < 2*raw.GoodputMbps {
			t.Errorf("%s goodput %.2f Mbps with box, %.2f without — repair should rescue it",
				p, fix.GoodputMbps, raw.GoodputMbps)
		}
		// Retransmission *rate*, not count: the rescued sender moves far
		// more data, so normalize by goodput before comparing waste.
		rawRate := float64(raw.RetxSegs) / raw.GoodputMbps
		fixRate := float64(fix.RetxSegs) / fix.GoodputMbps
		if fixRate >= rawRate && raw.RetxSegs > 0 {
			t.Errorf("%s retx/Mbps %.1f with box >= %.1f without — spurious retransmits should vanish",
				p, fixRate, rawRate)
		}
	}

	// Cap pressure: the tight box's 8-packet global cap cannot absorb
	// swap-high's displacement at line rate, so overflow shows up.
	var pressured bool
	for _, p := range workload.AllProtocols() {
		c := byKey["repair-tight/swap-high/"+p]
		if c.OverflowForwarded+c.OverflowDropped+c.TimedOut > 0 {
			pressured = true
		}
	}
	if !pressured {
		t.Error("repair-tight never hit cap pressure under swap-high — the tight scenario is vacuous")
	}
}

// TestRepairMatrixDeterministic is the fixed-seed replay guarantee: the
// same (seed, boxes, models) config renders byte-identical tables —
// including the custody detail — across independent runs.
func TestRepairMatrixDeterministic(t *testing.T) {
	small := func(seed int64) RepairMatrixConfig {
		return RepairMatrixConfig{
			Protocols: []string{workload.TCPPR, workload.NewReno},
			Boxes:     []string{"none", "repair", "repair-tight"},
			Models:    []string{"swap-high", "coalesce"},
			Total:     5 * time.Second,
			Seed:      seed,
		}
	}
	run := func(seed int64) []byte {
		res, err := RunRepairMatrix(small(seed))
		if err != nil {
			t.Fatal(err)
		}
		return repairCSV(t, res)
	}
	a, b := run(7), run(7)
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed matrix runs rendered different artifacts:\n--- run A ---\n%s\n--- run B ---\n%s", a, b)
	}
	// Non-vacuous: a different seed must permute the streams differently.
	if bytes.Equal(a, run(8)) {
		t.Fatal("different seeds rendered identical artifacts — the seed is not reaching the models")
	}
}
