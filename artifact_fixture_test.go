package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var (
	updateArtifacts = flag.Bool("update-artifacts", false, "rewrite results/artifact_fixture.sha256 from this tree's CLIs (implies -artifacts-full)")
	artifactsFull   = flag.Bool("artifacts-full", false, "replay the matrix runs with -trace too (minutes, several GB of scratch output)")
)

const artifactFixturePath = "results/artifact_fixture.sha256"

// fixtureRun is one pinned CLI invocation. "D" inside an argument stands
// for the run's scratch output directory.
type fixtureRun struct {
	id   string
	bin  string
	args []string
	// traceArgs are appended only under -artifacts-full: per-cell Chrome
	// traces run to gigabytes per matrix. Without them the replay still
	// compares every other pinned file of the run (tracing does not
	// perturb them) and skips the pinned trace exports.
	traceArgs []string
}

var fixtureRuns = []fixtureRun{
	{id: "faultmatrix", bin: "experiments",
		args:      []string{"-run", "faultmatrix", "-quick", "-seed", "3", "-check", "-metrics", "D", "-csv", "D"},
		traceArgs: []string{"-trace", "D", "-flight-recorder"}},
	{id: "churnmatrix", bin: "experiments",
		args:      []string{"-run", "churnmatrix", "-quick", "-seed", "3", "-check", "-metrics", "D", "-csv", "D"},
		traceArgs: []string{"-trace", "D", "-flight-recorder"}},
	{id: "reordermatrix", bin: "experiments",
		args:      []string{"-run", "reordermatrix", "-quick", "-seed", "3", "-check", "-metrics", "D", "-csv", "D"},
		traceArgs: []string{"-trace", "D", "-flight-recorder"}},
	{id: "repairmatrix", bin: "experiments",
		args:      []string{"-run", "repairmatrix", "-quick", "-seed", "3", "-check", "-metrics", "D", "-csv", "D"},
		traceArgs: []string{"-trace", "D", "-flight-recorder"}},
	{id: "fig2", bin: "experiments",
		args: []string{"-fig", "2", "-quick", "-metrics", "D", "-csv", "D"}},
	{id: "fig6", bin: "experiments",
		args: []string{"-fig", "6", "-quick", "-metrics", "D", "-csv", "D"}},
	{id: "tcpsim-dumbbell", bin: "tcpsim",
		args: []string{"-duration", "5s", "-warm", "2s", "-flows", "2", "-faults", "blackout-2s", "-check",
			"-metrics", "D", "-trace", "D/run.trace.json", "-trace-tsv", "D/run.spans.tsv",
			"-flight-recorder", "D/run.flight.txt"}},
	{id: "tcpsim-multipath", bin: "tcpsim",
		args: []string{"-topology", "multipath", "-protocols", "TCP-PR,TCP-SACK", "-eps", "1",
			"-duration", "5s", "-warm", "2s", "-check", "-metrics", "D",
			"-trace", "D/mp.trace.json", "-trace-tsv", "D/mp.spans.tsv"}},
	{id: "tcpsim-city", bin: "tcpsim",
		args: []string{"-topology", "city", "-shards", "2", "-districts", "4", "-hosts", "4",
			"-duration", "1s", "-engine-profile", "-heartbeat", "100ms", "-metrics", "D"}},
}

// wallClock reports files whose bytes depend on the host's clock; the
// fixture pins only that they exist.
func wallClock(name string) bool {
	for _, suf := range []string{".heartbeat.jsonl", ".engine.tsv", ".engine.json", ".engine.trace.json"} {
		if strings.HasSuffix(name, suf) {
			return true
		}
	}
	return false
}

func traceExport(name string) bool {
	return strings.HasSuffix(name, ".trace.json") || strings.HasSuffix(name, ".spans.tsv") ||
		strings.HasSuffix(name, ".flight.txt")
}

var (
	tableTimeRe = regexp.MustCompile(`(?m)^\((.*) in [0-9.]+s\)$`)
	wallLineRe  = regexp.MustCompile(`(?m)^.*(wall|engine profile:|flight recorder:).*\n`)
)

// normalizeStdout removes what legitimately differs between two runs of
// the same seed: the table timing suffix, the scratch directory, and the
// lines reporting wall-clock figures. The flight-recorder summary line
// goes too — it names a file that only exists once something dumped.
func normalizeStdout(out []byte, dir string) []byte {
	out = bytes.ReplaceAll(out, []byte(dir), []byte("D"))
	out = tableTimeRe.ReplaceAll(out, []byte("($1)"))
	return wallLineRe.ReplaceAll(out, nil)
}

// normalizeManifest drops the wall-clock fields and the artifact index
// (which may only grow: every listed name must exist, checked apart).
func normalizeManifest(t *testing.T, path string, raw []byte) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if arts, ok := m["artifacts"].([]any); ok {
		for _, a := range arts {
			if _, err := os.Stat(filepath.Join(filepath.Dir(path), a.(string))); err != nil {
				t.Errorf("%s lists artifact %q that was not written", filepath.Base(path), a)
			}
		}
	}
	for _, k := range []string{"wall_seconds", "events_per_sec", "artifacts"} {
		delete(m, k)
	}
	out, err := json.Marshal(m) // map keys marshal sorted
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// replayFixtureRun runs one pinned invocation and returns name -> hash
// ("-" for wall-clock files) for everything it left behind plus "stdout".
func replayFixtureRun(t *testing.T, binDir string, r fixtureRun, full bool) map[string]string {
	t.Helper()
	dir := t.TempDir()
	args := r.args
	if full {
		args = append(append([]string(nil), args...), r.traceArgs...)
	}
	for i, a := range args {
		if a == "D" || strings.HasPrefix(a, "D/") {
			args[i] = dir + a[1:]
		}
	}
	cmd := exec.Command(filepath.Join(binDir, r.bin), args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %s: %v\n%s", r.bin, strings.Join(args, " "), err, stderr.String())
	}
	got := map[string]string{"stdout": fmt.Sprintf("%x", sha256.Sum256(normalizeStdout(stdout.Bytes(), dir)))}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		path := filepath.Join(dir, name)
		if wallClock(name) {
			got[name] = "-"
			continue
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) == 0 && strings.HasSuffix(name, ".flight.txt") {
			continue // an armed recorder that never dumped leaves nothing worth pinning
		}
		if strings.HasSuffix(name, ".manifest.json") || strings.HasSuffix(name, "_run.json") {
			raw = normalizeManifest(t, path, raw)
		}
		if strings.HasPrefix(name, "fig2_") && strings.HasSuffix(name, ".csv") {
			// Recorded when Fig2Result.PerFlowTable still ranged over a
			// map: the protocol blocks came out in either order.
			lines := strings.Split(string(raw), "\n")
			sort.Strings(lines)
			raw = []byte(strings.Join(lines, "\n"))
		}
		got[name] = fmt.Sprintf("%x", sha256.Sum256(raw))
	}
	return got
}

func readArtifactFixture(t *testing.T) map[string]map[string]string {
	t.Helper()
	f, err := os.Open(artifactFixturePath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-artifacts)", err)
	}
	defer f.Close()
	want := map[string]map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sum, file, ok := strings.Cut(line, "  ")
		id, name, ok2 := strings.Cut(file, "/")
		if !ok || !ok2 {
			t.Fatalf("%s: malformed line %q", artifactFixturePath, line)
		}
		if want[id] == nil {
			want[id] = map[string]string{}
		}
		want[id][name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestArtifactFixture pins what the CLIs leave behind: for each pinned
// invocation the exact file set, the bytes of every deterministic
// artifact (series/span TSVs, Chrome traces, CSVs, manifests minus their
// wall-clock fields, stdout minus timings), and the mere presence of the
// wall-clock ones. results/artifact_fixture.sha256 was recorded before
// the telemetry wiring was consolidated; a refactor of that wiring must
// replay it unchanged.
//
//	go test -run TestArtifactFixture .                    # without the per-cell matrix traces
//	go test -run TestArtifactFixture -artifacts-full .    # everything (minutes, GBs of scratch)
//	go test -run TestArtifactFixture -update-artifacts .  # re-record (an intended change)
func TestArtifactFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs both CLIs; skipped in -short mode")
	}
	binDir := t.TempDir()
	build := exec.Command("go", "build", "-o", binDir+string(filepath.Separator), "./cmd/experiments", "./cmd/tcpsim")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	full := *artifactsFull || *updateArtifacts

	if *updateArtifacts {
		var buf bytes.Buffer
		buf.WriteString("# sha256 of every artifact the pinned CLI runs in artifact_fixture_test.go leave behind.\n")
		buf.WriteString("# \"-\" pins presence only (wall-clock content). Regenerate: go test -run TestArtifactFixture -update-artifacts .\n")
		for _, r := range fixtureRuns {
			var got map[string]string
			// A subtest so the run's scratch directory is removed before
			// the next run starts: the traced matrices are GBs each.
			t.Run(r.id, func(t *testing.T) { got = replayFixtureRun(t, binDir, r, true) })
			names := make([]string, 0, len(got))
			for n := range got {
				names = append(names, n)
			}
			sort.Strings(names)
			fmt.Fprintf(&buf, "\n# %s %s\n", r.bin, strings.Join(append(append([]string(nil), r.args...), r.traceArgs...), " "))
			for _, n := range names {
				fmt.Fprintf(&buf, "%s  %s/%s\n", got[n], r.id, n)
			}
		}
		if err := os.WriteFile(artifactFixturePath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	want := readArtifactFixture(t)
	for _, r := range fixtureRuns {
		r := r
		t.Run(r.id, func(t *testing.T) {
			traced := full || len(r.traceArgs) == 0
			got := replayFixtureRun(t, binDir, r, full)
			for name, sum := range want[r.id] {
				if !traced && traceExport(name) {
					continue
				}
				switch g, ok := got[name]; {
				case !ok:
					t.Errorf("missing artifact %s", name)
				case g != sum:
					t.Errorf("artifact %s differs from the fixture", name)
				}
			}
			for name := range got {
				if _, ok := want[r.id][name]; !ok {
					t.Errorf("unexpected artifact %s", name)
				}
			}
		})
	}
}
