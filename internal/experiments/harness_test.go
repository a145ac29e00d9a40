package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tcppr/internal/netem"
	"tcppr/internal/runobs"
	"tcppr/internal/sim"
	"tcppr/internal/workload"
)

// TestRunMatrixRejectsUnknownNamesUpFront: a bad name on any axis fails
// the run before a single cell has been built.
func TestRunMatrixRejectsUnknownNamesUpFront(t *testing.T) {
	good := netem.ReorderScenarioNames()
	for _, tc := range []struct {
		name    string
		axes    []axis
		wantErr string
	}{
		{"unknown row", []axis{{[]string{good[0], "no-such-model"}, catalog(netem.ReorderScenarioByName)},
			{names: []string{workload.TCPPR}}}, "no-such-model"},
		{"unknown protocol", []axis{{good, catalog(netem.ReorderScenarioByName)},
			{names: []string{workload.TCPPR, "TCP-Bogus"}}}, `harness: unknown protocol "TCP-Bogus"`},
		{"unknown middle axis", []axis{{netem.RepairScenarioNames(), catalog(netem.RepairScenarioByName)},
			{[]string{"swap-high", "nope"}, catalog(netem.ReorderScenarioByName)},
			{names: []string{workload.TCPPR}}}, "nope"},
	} {
		var built atomic.Int64
		_, err := runMatrix(matrix{name: "harness", axes: tc.axes, total: time.Millisecond, seed: 1},
			func(*matrixCell) func() int { built.Add(1); return func() int { return 0 } })
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.wantErr)
		}
		if n := built.Load(); n != 0 {
			t.Errorf("%s: %d cell(s) were built before the error", tc.name, n)
		}
	}
}

// TestRunMatrixCellIdentity pins each cell's place in the matrix to what
// the four hand-written runners used before the harness: cells enumerate
// outermost axis first with a 1-based counter, the scope is named
// <experiment>_<axes…>, and the cell's stream is SplitSeed(seed, counter).
func TestRunMatrixCellIdentity(t *testing.T) {
	models, protos := netem.ReorderScenarioNames(), workload.AllProtocols()
	const seed = 3
	type seen struct {
		Key  string
		Idx  int
		Seed int64
	}
	dir := t.TempDir()
	cells, err := runMatrix(matrix{
		name:  "reordermatrix",
		axes:  []axis{{models, catalog(netem.ReorderScenarioByName)}, {names: protos}},
		total: time.Millisecond, seed: seed,
		obs: runobs.NewSession(runobs.Options{MetricsDir: dir}),
	}, func(c *matrixCell) func() seen {
		return func() seen { return seen{strings.Join(c.Key, "_"), c.Idx, c.Seed} }
	})
	if err != nil {
		t.Fatal(err)
	}
	k := 0 // the counter the nested loops of the old runners kept
	for _, model := range models {
		for _, proto := range protos {
			k++
			want := seen{model + "_" + proto, k, sim.SplitSeed(seed, int64(k))}
			if cells[k-1] != want {
				t.Fatalf("cell %d = %+v, want %+v", k, cells[k-1], want)
			}
			if model == "swap-high" && proto == workload.TCPPR {
				if _, err := os.Stat(filepath.Join(dir, "reordermatrix_swap-high_TCP-PR.manifest.json")); err != nil {
					t.Errorf("cell %d left no manifest under its scope name: %v", k, err)
				}
			}
		}
	}
	if k != len(cells) {
		t.Fatalf("ran %d cells, want %d", len(cells), k)
	}
}

// TestMatrixParallelismInvariant: the worker count never changes a
// result. Run under -race this is also the harness's concurrency test:
// four workers share one session with every per-cell instrument on.
func TestMatrixParallelismInvariant(t *testing.T) {
	run := func(workers int) (ReorderMatrixResult, []string) {
		SetParallelism(workers)
		defer SetParallelism(0)
		dir := t.TempDir()
		ses := runobs.NewSession(runobs.Options{MetricsDir: dir, Check: true, TraceDir: dir, FlightRecorder: true})
		res, err := RunReorderMatrix(ReorderMatrixConfig{
			Protocols: []string{workload.TCPPR, workload.NewReno, workload.TCPSACK},
			Models:    []string{"none", "swap-high", "stripe"},
			Total:     2 * time.Second,
			Seed:      5,
			Obs:       ses,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := ses.Err(); err != nil {
			t.Fatal(err)
		}
		if ses.Cells() != len(res.Cells) {
			t.Fatalf("session checked %d cells, matrix ran %d", ses.Cells(), len(res.Cells))
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var files []string
		for _, e := range entries {
			files = append(files, e.Name())
		}
		return res, files
	}
	one, filesOne := run(1)
	four, filesFour := run(4)
	if !reflect.DeepEqual(one.Cells, four.Cells) {
		t.Fatalf("results differ between 1 and 4 workers:\n%+v\nvs\n%+v", one.Cells, four.Cells)
	}
	if !reflect.DeepEqual(filesOne, filesFour) {
		t.Fatalf("file sets differ between 1 and 4 workers:\n%v\nvs\n%v", filesOne, filesFour)
	}
}
