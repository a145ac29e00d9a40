package main

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"tcppr/internal/metrics"
)

// invoke runs the command in-process with "D" in args standing for dir.
func invoke(dir string, args ...string) (code int, stdout, stderr string) {
	for i, a := range args {
		if a == "D" {
			args[i] = dir
		}
	}
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func files(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

// TestBadInvocationsExitTwo: every contradictory or out-of-range flag
// combination dies up front — exit status 2, one "experiments:" line per
// problem, nothing written.
func TestBadInvocationsExitTwo(t *testing.T) {
	for _, tc := range []struct {
		name     string
		args     []string
		problems int
	}{
		{"unknown flag", []string{"-no-such-flag"}, 0},
		{"negative parallel", []string{"-parallel", "-1"}, 1},
		{"negative shards", []string{"-shards", "-1"}, 1},
		{"negative fuzz", []string{"-fuzz", "-3"}, 1},
		{"negative heartbeat", []string{"-heartbeat", "-1s"}, 1},
		{"negative watchdog", []string{"-watchdog-timeout", "-1s"}, 1},
		{"engine profile without metrics", []string{"-run", "city", "-engine-profile"}, 1},
		{"engine profile off the engine", []string{"-run", "fig2", "-engine-profile", "-metrics", "D"}, 1},
		{"heartbeat off the engine", []string{"-fig", "6", "-heartbeat", "1s"}, 1},
		{"watchdog off the engine", []string{"-run", "faultmatrix", "-watchdog-timeout", "1m"}, 1},
		{"flight recorder with nowhere to dump", []string{"-run", "faultmatrix", "-flight-recorder"}, 1},
		{"empty csv path", []string{"-csv", ""}, 1},
		{"empty metrics path", []string{"-metrics", ""}, 1},
		{"empty trace path", []string{"-trace", ""}, 1},
		{"three problems at once", []string{"-parallel", "-1", "-run", "fig3", "-heartbeat", "1s", "-flight-recorder", "-metrics", "D"}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			code, stdout, stderr := invoke(dir, tc.args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2\nstderr:\n%s", code, stderr)
			}
			if stdout != "" {
				t.Errorf("usage errors printed to stdout:\n%s", stdout)
			}
			if tc.problems > 0 {
				if n := strings.Count(stderr, "experiments: "); n != tc.problems {
					t.Errorf("%d problem line(s), want %d:\n%s", n, tc.problems, stderr)
				}
			}
			if left := files(t, dir); len(left) != 0 {
				t.Errorf("a rejected invocation created %v", left)
			}
		})
	}
}

// wantList is the -list output, byte for byte: scripts parse it.
const wantList = `  fig2               Fig 2 fairness: TCP-PR vs TCP-SACK normalized throughput across flow counts
  fig3               Fig 3 CoV of throughput vs loss rate, repeated over seeds
  fig4               Fig 4 alpha/beta sensitivity grid against TCP-SACK
  fig6               Fig 6 multipath comparison across protocols, epsilons, and link delays
  ablation-beta      Ablation: beta under heavy loss (the paper's §4 note)
  ablation-memorize  Ablation: memorize list on vs off under burst loss
  ablation-sendcwnd  Ablation: halve from send-time cwnd vs current cwnd
  ablation-holemode  Ablation: hole-handling policy while the cumulative ACK is frozen
  ext-threshold      Extension: loss-detection threshold sweep over a recorded trace
  ext-reorder        Extension: how much reordering each epsilon actually produces
  ext-robustness     Extension: goodput under ACK loss, delayed ACKs, jitter, and RED
  ext-door           Extension: Fig 6 protocol set plus TCP-DOOR and Eifel
  city               Sharded-city scaling: sim-s/wall-s of the parallel engine at 1 vs 4 shards
  faultmatrix        Survival matrix: every protocol against every scripted fault scenario
  churnmatrix        Endpoint-churn matrix: retrying workloads against host blip/reboot/flap/death
  reordermatrix      Reordering survival matrix: every protocol against every canned reorder model
  repairmatrix       Repair-middlebox matrix: reorder models × repair boxes × every protocol
`

func TestAcceptedCombinations(t *testing.T) {
	code, stdout, stderr := invoke("", "-list")
	if code != 0 || stdout != wantList || stderr != "" {
		t.Errorf("-list: exit %d\n%s%s\nwant stdout:\n%s", code, stdout, stderr, wantList)
	}
	// -flight-recorder is satisfied by a fuzz replay alone.
	code, stdout, stderr = invoke("", "-fuzz-seed", "7", "-flight-recorder")
	if code != 0 || !strings.Contains(stdout, "seed 7:") {
		t.Errorf("-fuzz-seed 7 -flight-recorder: exit %d\n%s%s", code, stdout, stderr)
	}
	dir := t.TempDir()
	code, _, stderr = invoke(dir, "-run", "nope", "-metrics", "D/m")
	if code != 1 || !strings.Contains(stderr, `unknown experiment "nope"`) {
		t.Errorf("-run nope: exit %d\n%s", code, stderr)
	}
	if left := files(t, dir); len(left) != 0 {
		t.Errorf("an unknown experiment still created %v", left)
	}
}

// TestGoodRunFileSets: short good runs exit 0 and leave exactly the
// expected files, every telemetry file indexed by a manifest.
func TestGoodRunFileSets(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want []string
	}{
		{"city, engine telemetry on",
			[]string{"-run", "city", "-quick", "-shards", "2", "-check", "-engine-profile", "-heartbeat", "1ms",
				"-metrics", "D", "-csv", "D"},
			[]string{"city_2shard.engine.json", "city_2shard.engine.trace.json", "city_2shard.engine.tsv",
				"city_2shard.heartbeat.jsonl", "city_2shard.manifest.json", "city_run.json", "city_scaling.csv"}},
		{"ablation cell, metrics and trace like any other",
			[]string{"-run", "ablation-memorize", "-quick", "-check", "-metrics", "D", "-trace", "D", "-flight-recorder"},
			[]string{"ablation-memorize memorize (paper).spans.tsv", "ablation-memorize memorize (paper).trace.json",
				"ablation-memorize no memorize.spans.tsv", "ablation-memorize no memorize.trace.json",
				"ablation-memorize-memorize-paper.manifest.json", "ablation-memorize-memorize-paper.series.tsv",
				"ablation-memorize-no-memorize.manifest.json", "ablation-memorize-no-memorize.series.tsv",
				"ablation-memorize_run.json"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			code, stdout, stderr := invoke(dir, tc.args...)
			if code != 0 {
				t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
			}
			got := files(t, dir)
			if strings.Join(got, "|") != strings.Join(tc.want, "|") {
				t.Fatalf("files = %q\nwant    %q", got, tc.want)
			}
			indexed := map[string]bool{}
			for _, name := range got {
				if !strings.HasSuffix(name, ".manifest.json") {
					continue
				}
				m, err := metrics.ReadManifest(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				for _, a := range m.Artifacts {
					indexed[a] = true
				}
				for _, s := range m.Series {
					indexed[s.File] = true
				}
			}
			for _, name := range got {
				if strings.HasSuffix(name, ".manifest.json") || strings.HasSuffix(name, "_run.json") || strings.HasSuffix(name, ".csv") {
					continue
				}
				if !indexed[name] {
					t.Errorf("%s is indexed by no manifest", name)
				}
			}
			if !strings.Contains(stdout, " in ") {
				t.Errorf("no result table on stdout:\n%s", stdout)
			}
		})
	}
}
