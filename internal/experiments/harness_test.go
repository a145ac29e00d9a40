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

// TestRunMatrixRejectsUnknownNamesUpFront: a bad value on any checked
// axis fails the run before a single cell has been built.
func TestRunMatrixRejectsUnknownNamesUpFront(t *testing.T) {
	good := netem.ReorderScenarioNames()
	matrix := func(protos []string, rows ...axis[[]string]) func(*atomic.Int64) error {
		return func(built *atomic.Int64) error {
			_, err := runSweep(survival("harness", time.Millisecond, 1, nil, nil, protos, rows...),
				func(*cell[[]string]) func() int { built.Add(1); return func() int { return 0 } })
			return err
		}
	}
	for _, tc := range []struct {
		name    string
		run     func(built *atomic.Int64) error
		wantErr string
	}{
		{"unknown row", matrix([]string{workload.TCPPR},
			names([]string{good[0], "no-such-model"}, catalog(netem.ReorderScenarioByName))), "no-such-model"},
		{"unknown protocol", matrix([]string{workload.TCPPR, "TCP-Bogus"},
			names(good, catalog(netem.ReorderScenarioByName))), `harness: unknown protocol "TCP-Bogus"`},
		{"unknown middle axis", matrix([]string{workload.TCPPR},
			names(netem.RepairScenarioNames(), catalog(netem.RepairScenarioByName)),
			names([]string{"swap-high", "nope"}, catalog(netem.ReorderScenarioByName))), "nope"},
		{"unknown topology", func(built *atomic.Int64) error {
			_, err := runSweep(fig2Sweep(Fig2Config{Topologies: []string{"dumbbell", "ring"}, FlowCounts: []int{4}, Durations: Quick}),
				func(*cell[mixed]) func() int { built.Add(1); return func() int { return 0 } })
			return err
		}, `experiments: unknown topology "ring"`},
	} {
		var built atomic.Int64
		err := tc.run(&built)
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
	cells, err := runSweep(survival("reordermatrix", time.Millisecond, seed, nil,
		runobs.NewSession(runobs.Options{MetricsDir: dir}), protos,
		names(models, catalog(netem.ReorderScenarioByName))),
		func(c *cell[[]string]) func() seen {
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

	// A figure through the same pool: fig2's declaration (its Smoke cell
	// plus three more, so four workers have something to share) leaves
	// byte-identical files — CSVs, series, manifests minus their
	// wall-clock fields — and tables at 1 and 4 workers.
	fig2 := func(workers int) map[string]string {
		SetParallelism(workers)
		defer SetParallelism(0)
		dir := t.TempDir()
		tables, err := RunFig2(Fig2Config{Topologies: []string{"dumbbell", "parkinglot"}, FlowCounts: []int{8, 4},
			Durations: Durations{Warm: 2 * time.Second, Measure: 2 * time.Second},
			Obs:       runobs.NewSession(runobs.Options{MetricsDir: dir, Check: true})})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, tb := range tables {
			if err := tb.Fprint(&sb); err != nil {
				t.Fatal(err)
			}
			if err := tb.WriteCSV(&sb); err != nil {
				t.Fatal(err)
			}
		}
		sums := smokeSums(t, dir)
		sums["tables"] = sha(sb.String())
		return sums
	}
	if a, b := fig2(1), fig2(4); !reflect.DeepEqual(a, b) {
		t.Fatalf("fig2 artifacts differ between 1 and 4 workers:\n%v\nvs\n%v", a, b)
	}
}
